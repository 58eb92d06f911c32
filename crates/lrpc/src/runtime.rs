//! The LRPC runtime.
//!
//! One [`LrpcRuntime`] per machine ties together the kernel, the name
//! server, the Binding Object table, the per-server E-stack pools, and the
//! optional conventional-RPC transport for remote bindings.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use firefly::fault::FaultPlan;
use idl::stubgen::compile;
use kernel::ids::DomainId;
use kernel::kernel::{Kernel, TerminationReport};
use kernel::nameserver::NameServer;
use kernel::objects::{HandleTable, RawHandle};
use kernel::thread::Thread;
use kernel::Domain;
use parking_lot::{Mutex, RwLock};

use crate::astack::{AStackMapping, AStackPolicy, AStackSet};
use crate::binding::{Binding, BindingState, BindingStats, Clerk, Handler, TOTALS};
use crate::bulk::BulkArena;
use crate::error::CallError;
use crate::estack::{EStackPool, DEFAULT_ESTACK_SIZE, DEFAULT_MAX_ESTACKS};
use crate::remote::RemoteTransport;
use crate::ring::{CallRing, RING_SLOTS};
use crate::touch::TouchPlan;

/// Tunables of the runtime.
#[derive(Clone, Debug)]
pub struct RuntimeConfig {
    /// Use the idle-processor optimization of Section 3.4 (caching domain
    /// contexts on idle processors). Tables 4/5 report both settings.
    pub domain_caching: bool,
    /// How long an importer waits for the exporter's clerk.
    pub import_timeout: Duration,
    /// What a call does when its procedure's A-stacks are exhausted.
    pub astack_policy: AStackPolicy,
    /// E-stacks per server domain before LRU reclamation.
    pub max_estacks: usize,
    /// How A-stack regions are mapped (pairwise, or the Firefly's
    /// globally-shared fallback — Section 3.5).
    pub astack_mapping: AStackMapping,
    /// Adaptive sizing plan from a prior run: per-interface A-stack counts
    /// and ring depths that override the PDL's static guesses at import
    /// time. `None` (the default) keeps the PDL values.
    pub adapt: Option<Arc<crate::adapt::AdaptPlan>>,
}

impl Default for RuntimeConfig {
    fn default() -> RuntimeConfig {
        RuntimeConfig {
            domain_caching: true,
            import_timeout: Duration::from_secs(5),
            astack_policy: AStackPolicy::Wait(Duration::from_secs(1)),
            max_estacks: DEFAULT_MAX_ESTACKS,
            astack_mapping: AStackMapping::Pairwise,
            adapt: None,
        }
    }
}

/// The LRPC run-time library plus the kernel facilities it drives.
///
/// Everything a call touches per invocation is either sharded (the
/// Binding Object table), cached on the binding at import time (the
/// E-stack pool), or gated behind an atomic flag (the fault plan), so the
/// Null-call fast path acquires zero process-global locks. The remaining
/// runtime maps are read-mostly `RwLock`s (or import-time-only mutexes)
/// and report every acquisition to [`firefly::meter::note_global_lock`].
pub struct LrpcRuntime {
    kernel: Arc<Kernel>,
    config: RuntimeConfig,
    names: NameServer<Arc<Clerk>>,
    bindings: HandleTable<Arc<BindingState>>,
    estacks: RwLock<HashMap<DomainId, Arc<EStackPool>>>,
    remote: RwLock<Option<Arc<dyn RemoteTransport>>>,
    proxy_domain: Mutex<Option<Arc<Domain>>>,
    fault: RwLock<Option<Arc<FaultPlan>>>,
    /// True while a fault plan is installed. Lets `fault_plan()` — called
    /// once per LRPC — be a single atomic load in the common no-chaos
    /// case instead of a lock acquisition.
    fault_installed: AtomicBool,
    /// The runtime's metrics registry. Per-runtime (not process-global) so
    /// parallel tests each observe only their own runtime's activity.
    /// Components register handles at bind time; the steady call path
    /// updates them with lone atomic ops, never through the registry.
    metrics: Arc<obs::Registry>,
    /// The record/replay session every nondeterministic decision reports
    /// to. Live sessions record nothing and answer nothing — components
    /// built under one hold no stream, so the call path pays only a
    /// `None` check.
    rr: Arc<replay::Session>,
}

impl LrpcRuntime {
    /// Creates a runtime with the default configuration and a live replay
    /// session. [`TestRuntime`] builds any other configuration.
    pub fn new(kernel: Arc<Kernel>) -> Arc<LrpcRuntime> {
        LrpcRuntime::with_session(kernel, RuntimeConfig::default(), replay::Session::live())
    }

    /// Creates a runtime under a record/replay session.
    ///
    /// A `Record` session captures every nondeterministic decision the
    /// runtime and the simulated machine make (clock charges, scheduler
    /// picks, fault draws, stack-allocation outcomes); a `Replay` session
    /// answers fault draws from a prior log and checks everything else
    /// against it; a live session does neither.
    fn with_session(
        kernel: Arc<Kernel>,
        config: RuntimeConfig,
        session: Arc<replay::Session>,
    ) -> Arc<LrpcRuntime> {
        kernel.machine().attach_replay(&session);
        let metrics = Arc::new(obs::Registry::new());
        // Doorbell traps across every binding: present from startup so a
        // scrape before the first batch still sees the series.
        let _ = metrics.counter("lrpc_doorbells_total");
        Arc::new(LrpcRuntime {
            kernel,
            config,
            names: NameServer::new(),
            bindings: HandleTable::new(),
            estacks: RwLock::new(HashMap::new()),
            remote: RwLock::new(None),
            proxy_domain: Mutex::new(None),
            fault: RwLock::new(None),
            fault_installed: AtomicBool::new(false),
            metrics,
            rr: session,
        })
    }

    /// The runtime's record/replay session.
    pub fn replay_session(&self) -> &Arc<replay::Session> {
        &self.rr
    }

    /// The kernel.
    pub fn kernel(&self) -> &Arc<Kernel> {
        &self.kernel
    }

    /// The runtime's metrics registry.
    pub fn metrics(&self) -> &Arc<obs::Registry> {
        &self.metrics
    }

    /// The configuration.
    pub fn config(&self) -> &RuntimeConfig {
        &self.config
    }

    /// Exports an interface (given as IDL source) from `server`, installing
    /// the clerk in the name server. Returns the clerk, which has compiled
    /// the interface's stubs and copy plans once for every import.
    ///
    /// `handlers` must supply one body per declared procedure, in order.
    pub fn export(
        self: &Arc<Self>,
        server: &Arc<Domain>,
        idl_src: &str,
        handlers: Vec<Handler>,
    ) -> Result<Arc<Clerk>, CallError> {
        let def = idl::parse(idl_src)
            .map_err(|e| CallError::ServerFault(format!("interface parse error: {e}")))?;
        if !server.is_active() {
            return Err(CallError::DomainDead);
        }
        let clerk = Arc::new(Clerk::new(
            Arc::new(compile(&def)),
            Arc::clone(server),
            handlers,
        ));
        self.names.register(def.name, Arc::clone(&clerk));
        Ok(clerk)
    }

    /// Imports an interface into `client`: waits for the exporter's clerk,
    /// obtains the PDL, pairwise-allocates the A-stacks and linkage
    /// records, and returns the Binding Object wrapped in a [`Binding`].
    pub fn import(
        self: &Arc<Self>,
        client: &Arc<Domain>,
        name: &str,
    ) -> Result<Binding, CallError> {
        if !client.is_active() {
            return Err(CallError::DomainDead);
        }
        let clerk = self
            .names
            .import_wait(name, self.config.import_timeout)
            .ok_or_else(|| CallError::ImportTimeout {
                name: name.to_string(),
            })?;
        if !clerk.domain().is_active() {
            return Err(CallError::DomainDead);
        }
        Ok(self.bind(client, name, clerk, false))
    }

    /// Imports an interface exported by a *remote* machine through the
    /// configured transport. The resulting Binding Object has its remote
    /// bit set; calls branch to the conventional RPC stub at the first
    /// instruction (Section 5.1).
    pub fn import_remote(
        self: &Arc<Self>,
        client: &Arc<Domain>,
        name: &str,
    ) -> Result<Binding, CallError> {
        let transport = self
            .remote_transport()
            .ok_or(CallError::NoRemoteTransport)?;
        if !transport.exports(name) {
            return Err(CallError::ImportTimeout {
                name: name.to_string(),
            });
        }
        let interface = transport
            .interface(name)
            .ok_or_else(|| CallError::ImportTimeout {
                name: name.to_string(),
            })?;
        // The proxy clerk never dispatches (the remote branch happens
        // before the transfer path); it exists so the binding state is
        // fully formed.
        let handlers = (0..interface.procs.len())
            .map(|_| {
                Box::new(|_: &crate::binding::ServerCtx, _: &[idl::wire::Value]| {
                    Err(CallError::NoRemoteTransport)
                }) as Handler
            })
            .collect();
        let clerk = Arc::new(Clerk::new(interface, self.proxy_domain(), handlers));
        Ok(self.bind(client, name, clerk, true))
    }

    /// The kernel's half of binding (Section 3.1): from the clerk's PDL,
    /// pairwise-allocates the A-stacks and linkage records, and for a
    /// local binding the bulk arena and the call ring; records the
    /// Binding Object in the table and returns it. A remote binding keeps
    /// the PDL's sizing and gets no arena and no ring: its calls take the
    /// conventional-RPC branch before the transfer path.
    fn bind(
        self: &Arc<Self>,
        client: &Arc<Domain>,
        name: &str,
        clerk: Arc<Clerk>,
        remote: bool,
    ) -> Binding {
        let kernel = &self.kernel;
        let rr = &self.rr;
        let server = Arc::clone(clerk.domain());
        // An adaptive sizing plan (from a prior run's observations)
        // overrides the PDL's static simultaneous-call guesses; each
        // application is a recorded replay decision so adaptive runs
        // replay byte-identically.
        let adapt = match &self.config.adapt {
            Some(plan) if !remote => plan.get(name),
            _ => None,
        };
        if let Some(rec) = adapt.filter(|_| !rr.is_live()) {
            rr.stream("adapt")
                .emit(replay::kind::ADAPT, crate::adapt::AdaptPlan::pack(rec));
        }
        let per_proc: Vec<(usize, u32)> = clerk
            .pdl()
            .iter()
            .map(|pd| {
                (
                    pd.astack_size,
                    adapt.map_or(pd.simultaneous_calls, |r| r.astacks),
                )
            })
            .collect();
        let (label, mapping) = if remote {
            ("astacks-remote", AStackMapping::Pairwise)
        } else {
            ("astacks", self.config.astack_mapping)
        };
        let astacks = AStackSet::allocate(
            kernel,
            client,
            &server,
            &format!("{label}:{name}"),
            &per_proc,
            mapping,
            rr,
        );
        // Interfaces declaring large out-of-band parameters also get their
        // bulk arena pairwise-mapped here at bind time, so steady-state
        // large calls never map a per-call segment.
        let bulk = if remote {
            None
        } else {
            BulkArena::for_interface(
                kernel,
                client,
                &server,
                &format!("bulk-arena:{name}"),
                clerk.interface(),
                &astacks,
                rr,
            )
            .map(Arc::new)
        };
        if let Some(arena) = &bulk {
            self.metrics.register_gauge(
                &format!("lrpc_bulk_arena_busy:{name}"),
                arena.busy_gauge().clone(),
            );
        }
        let touch = TouchPlan::allocate(kernel, client, &server);
        let estack_pool = self.estack_pool(&server);
        // The pairwise submission/completion ring for doorbell-batched
        // calls, mapped at bind time like the A-stacks.
        let ring = (!remote).then(|| {
            let slots = adapt.map_or(RING_SLOTS, |r| r.ring_slots);
            Arc::new(CallRing::with_slots(
                kernel,
                client,
                &server,
                name,
                &self.metrics,
                slots,
                rr,
            ))
        });
        let state = Arc::new(BindingState {
            interface: Arc::clone(clerk.interface()),
            client: Arc::clone(client),
            server,
            plans: Arc::clone(clerk.plans()),
            clerk,
            astacks,
            bulk,
            touch,
            estack_pool,
            ring,
            revoked: AtomicBool::new(false),
            remote,
            stats: BindingStats::register(&self.metrics, name, remote),
        });
        let handle = self.bindings.insert(Arc::clone(&state));
        Binding::new(Arc::clone(self), handle, state)
    }

    /// Installs the conventional-RPC transport used by remote bindings.
    pub fn set_remote_transport(&self, t: Arc<dyn RemoteTransport>) {
        firefly::meter::note_global_lock();
        *self.remote.write() = Some(t);
    }

    /// The configured remote transport, if any.
    pub fn remote_transport(&self) -> Option<Arc<dyn RemoteTransport>> {
        firefly::meter::note_global_lock();
        self.remote.read().clone()
    }

    /// Installs a fault-injection plan. The call path, the clerks and (if
    /// shared with the transport) the network consult it at their
    /// injection sites; `None` (the default) injects nothing.
    pub fn set_fault_plan(&self, plan: Option<Arc<FaultPlan>>) {
        firefly::meter::note_global_lock();
        if let Some(p) = &plan {
            p.attach_replay(&self.rr);
        }
        *self.fault.write() = plan.clone();
        self.fault_installed
            .store(plan.is_some(), Ordering::Release);
    }

    /// The installed fault plan, if any. While no plan is installed (the
    /// normal case) this is one atomic load — the call fast path pays no
    /// lock for the chaos machinery.
    pub fn fault_plan(&self) -> Option<Arc<FaultPlan>> {
        if !self.fault_installed.load(Ordering::Acquire) {
            return None;
        }
        firefly::meter::note_global_lock();
        self.fault.read().clone()
    }

    fn proxy_domain(&self) -> Arc<Domain> {
        firefly::meter::note_global_lock();
        let mut guard = self.proxy_domain.lock();
        if let Some(d) = guard.as_ref() {
            return Arc::clone(d);
        }
        let d = self.kernel.create_domain("network-proxy");
        *guard = Some(Arc::clone(&d));
        d
    }

    /// Runs the idle-processor prodding policy over every live domain
    /// (Section 3.4): idle CPUs are parked in the contexts of the domains
    /// that missed the idle-processor optimization most often, and the
    /// per-domain counters are reset.
    ///
    /// Returns the number of idle CPUs that were (re)assigned.
    pub fn rebalance_idle_processors(&self) -> usize {
        let domains = self.kernel.domains();
        kernel::sched::prod_idle_processors(self.kernel.machine(), &domains)
            .iter()
            .sum()
    }

    /// Total A-stack acquires across every binding that found their
    /// class free list empty, whatever the policy then did about it.
    pub fn astack_wait_events(&self) -> u64 {
        let mut total = 0u64;
        self.bindings
            .for_each(|state| total += state.astacks.total_stall_events());
        total
    }

    /// Builds an adaptive sizing plan from what this runtime's bindings
    /// observed: per interface, the worst-case A-stack occupancy peak,
    /// stall-event count, batch peak and tail p99 across every binding of
    /// that interface feed [`crate::adapt::recommend`].
    ///
    /// A slow-path sweep (import/window-boundary time, never on a call).
    pub fn adapt_plan(&self, cfg: &crate::adapt::AdaptConfig) -> crate::adapt::AdaptPlan {
        use crate::adapt::{recommend, AdaptPlan, ClassSnapshot};
        let mut plan = AdaptPlan::default();
        self.bindings.for_each(|state| {
            let mut snap = ClassSnapshot {
                batch_peak: state.stats.batch_peak(),
                ..ClassSnapshot::default()
            };
            for (ci, c) in state.astacks.classes().iter().enumerate() {
                snap.total = snap.total.max(c.primary_count as u64);
                snap.peak_in_use = snap.peak_in_use.max(state.astacks.peak_in_use(ci));
                snap.stall_events = snap.stall_events.max(state.astacks.stall_events(ci));
            }
            if let Some(t) = state.stats.tail_latency() {
                snap.tail_p99_ns = t.snapshot().quantile(0.99).unwrap_or(0);
            }
            let rec = recommend(cfg, &snap);
            plan.per_interface
                .entry(state.interface.name.clone())
                .and_modify(|r| {
                    r.astacks = r.astacks.max(rec.astacks);
                    r.ring_slots = r.ring_slots.max(rec.ring_slots);
                })
                .or_insert(rec);
        });
        plan
    }

    /// Re-applies an adaptive sizing plan to *live* bindings at a window
    /// boundary: classes below their recommended A-stack count grow
    /// (overflow allocations, Section 5.2) up to it. Ring depths are
    /// import-time-only and are not resized here. Each touched interface
    /// emits one [`replay::kind::ADAPT`] decision, so a recorded run that
    /// rebalances mid-flight still replays byte-identically.
    ///
    /// Returns the number of A-stacks allocated.
    pub fn apply_adapt(&self, plan: &crate::adapt::AdaptPlan) -> usize {
        let mut grown = 0usize;
        self.bindings.for_each(|state| {
            let Some(rec) = plan.get(&state.interface.name) else {
                return;
            };
            let mut touched = false;
            for ci in 0..state.astacks.classes().len() {
                let mut have = state.astacks.class_count(ci);
                while have < rec.astacks as usize {
                    let idx = state
                        .astacks
                        .grow(ci, &self.kernel, &state.client, &state.server);
                    state.astacks.release(idx);
                    have += 1;
                    grown += 1;
                    touched = true;
                }
            }
            if touched && !self.rr.is_live() {
                self.rr
                    .stream("adapt")
                    .emit(replay::kind::ADAPT, crate::adapt::AdaptPlan::pack(rec));
            }
        });
        grown
    }

    /// True if an exporter has registered `name` with the name server.
    pub fn exports(&self, name: &str) -> bool {
        self.names.lookup(name).is_some()
    }

    /// Kernel-side Binding Object validation ("must be presented to the
    /// kernel at each call").
    pub fn validate_binding(&self, handle: RawHandle) -> Result<Arc<BindingState>, CallError> {
        let state = self.bindings.get(handle)?;
        if state.is_revoked() {
            return Err(CallError::BindingRevoked);
        }
        Ok(state)
    }

    /// The E-stack pool of a server domain.
    ///
    /// Bindings cache the pool at import time ([`BindingState::estack_pool`]),
    /// so calls never come here — this map is consulted at bind and
    /// termination time only.
    pub fn estack_pool(&self, server: &Arc<Domain>) -> Arc<EStackPool> {
        firefly::meter::note_global_lock();
        if let Some(pool) = self.estacks.read().get(&server.id()) {
            return Arc::clone(pool);
        }
        firefly::meter::note_global_lock();
        let mut pools = self.estacks.write();
        Arc::clone(pools.entry(server.id()).or_insert_with(|| {
            let pool = Arc::new(EStackPool::new(
                Arc::clone(server),
                DEFAULT_ESTACK_SIZE,
                self.config.max_estacks,
                &self.rr,
            ));
            // Adopt the pool's live busy gauge so exports see "E-stacks in
            // a call right now" per server domain without a sweep.
            self.metrics.register_gauge(
                &format!("lrpc_estacks_busy:{}", server.name()),
                pool.busy_gauge().clone(),
            );
            pool
        }))
    }

    /// Terminates a domain, LRPC-level steps included (Section 5.3): every
    /// Binding Object associated with the domain — as client or server —
    /// is revoked, its exported interfaces are withdrawn from the name
    /// server, and the kernel collector then invalidates linkage records
    /// and reclaims resources.
    pub fn terminate_domain(&self, domain: &Arc<Domain>) -> TerminationReport {
        // Revoke bindings first so no new calls can start.
        let revoked = self.bindings.revoke_matching(|s| s.involves(domain));
        for s in &revoked {
            s.revoke();
        }
        self.names
            .unregister_matching(|c| c.domain().id() == domain.id());
        firefly::meter::note_global_lock();
        self.estacks.write().remove(&domain.id());
        self.kernel.terminate_domain(domain)
    }

    /// Recovers from a server capturing the client's thread (Section 5.3):
    /// creates a replacement thread "whose initial state is that of the
    /// original captured thread as if it had just returned from the server
    /// procedure with a call-aborted exception". The captured thread is
    /// destroyed by the kernel when the server finally releases it.
    pub fn abandon_captured(&self, captured: &Arc<Thread>) -> Option<Arc<Thread>> {
        self.kernel.replace_captured_thread(captured)
    }

    /// Samples the runtime-wide observable state into the metrics registry
    /// and returns the resulting snapshot.
    ///
    /// A slow-path sweep (every shard, every binding, every CPU): gauges
    /// that components cannot cheaply maintain live — A-stack occupancy
    /// and wait-queue depth, TLB hit/miss totals, call and domain-cache totals,
    /// fault-plan event counts — are read here, point-in-time.
    /// Live handles (E-stack busy gauges, per-binding latency histograms,
    /// circuit-breaker state) are already registered and simply appear in
    /// the snapshot.
    pub fn collect_metrics(&self) -> obs::Snapshot {
        // A-stacks across every live binding.
        let mut astacks_total = 0usize;
        let mut astacks_free = 0usize;
        let mut astack_waiters = 0usize;
        let mut astack_wait_events = 0u64;
        let mut bulk_chunks_total = 0usize;
        let mut bulk_chunks_free = 0usize;
        self.bindings.for_each(|state| {
            astacks_total += state.astacks.total_count();
            astack_wait_events += state.astacks.total_stall_events();
            for ci in 0..state.astacks.classes().len() {
                astacks_free += state.astacks.free_count(ci);
                astack_waiters += state.astacks.waiters(ci);
            }
            if let Some(arena) = &state.bulk {
                bulk_chunks_total += arena.chunk_count();
                bulk_chunks_free += arena.free_count();
            }
        });
        let m = &self.metrics;
        m.gauge("lrpc_astacks_total").set(astacks_total as i64);
        m.gauge("lrpc_astacks_free").set(astacks_free as i64);
        m.gauge("lrpc_astack_waiters").set(astack_waiters as i64);
        m.gauge("lrpc_astack_wait_events")
            .set(astack_wait_events as i64);
        m.gauge("lrpc_bulk_chunks_total")
            .set(bulk_chunks_total as i64);
        m.gauge("lrpc_bulk_chunks_free")
            .set(bulk_chunks_free as i64);
        m.gauge("lrpc_bindings_live")
            .set(self.bindings.len() as i64);

        // TLB totals across the machine's CPUs.
        let machine = self.kernel.machine();
        let (mut tlb_hits, mut tlb_misses) = (0u64, 0u64);
        for cpu in machine.cpus() {
            tlb_hits += cpu.tlb_hits();
            tlb_misses += cpu.tlb_misses();
        }
        m.gauge("firefly_tlb_hits").set(tlb_hits as i64);
        m.gauge("firefly_tlb_misses").set(tlb_misses as i64);

        // The call totals and the Section 3.4 domain-caching outcomes:
        // the per-interface counters, summed, terminated bindings included.
        for total in TOTALS
            .into_iter()
            .chain(["lrpc_domain_cache_hits", "lrpc_domain_cache_misses"])
        {
            let sum = m.counter_sum(&format!("{total}:"));
            m.gauge(total).set(sum as i64);
        }

        // Chaos plane: injected fault events so far, if a plan is live.
        if let Some(plan) = self.fault_plan() {
            m.gauge("fault_events_total").set(plan.event_count() as i64);
        }

        // Flight-recorder overwrite loss (process-wide: rings are
        // per-thread, not per-runtime). A true counter, advanced by the
        // delta since the last sweep, so tail attribution can report span
        // coverage instead of silently sampling.
        let dropped = m.counter("obs_flight_dropped_total");
        dropped.add(obs::flight::dropped_total().saturating_sub(dropped.get()));

        m.snapshot()
    }
}

/// Builder for a configured runtime: the one way to choose its machine,
/// its [`RuntimeConfig`] and its record/replay session
/// ([`LrpcRuntime::new`] runs the defaults on a given kernel). Defaults:
/// a single-CPU C-VAX Firefly, the default [`RuntimeConfig`], a live
/// replay session.
pub struct TestRuntime {
    machine: Option<Arc<firefly::cpu::Machine>>,
    cpus: usize,
    config: RuntimeConfig,
    session: Arc<replay::Session>,
}

impl Default for TestRuntime {
    fn default() -> TestRuntime {
        TestRuntime::new()
    }
}

impl TestRuntime {
    /// Starts a builder with the defaults above.
    pub fn new() -> TestRuntime {
        TestRuntime {
            machine: None,
            cpus: 1,
            config: RuntimeConfig::default(),
            session: replay::Session::live(),
        }
    }

    /// Number of simulated CPUs (ignored if [`TestRuntime::machine`] is
    /// also set).
    pub fn cpus(mut self, n: usize) -> TestRuntime {
        self.cpus = n;
        self
    }

    /// An explicit machine (tagged-TLB ablations, custom cost models).
    pub fn machine(mut self, machine: Arc<firefly::cpu::Machine>) -> TestRuntime {
        self.machine = Some(machine);
        self
    }

    /// Toggles the Section 3.4 idle-processor optimization.
    pub fn domain_caching(mut self, on: bool) -> TestRuntime {
        self.config.domain_caching = on;
        self
    }

    /// How long an importer waits for the exporter's clerk.
    pub fn import_timeout(mut self, timeout: Duration) -> TestRuntime {
        self.config.import_timeout = timeout;
        self
    }

    /// The A-stack exhaustion policy.
    pub fn astack_policy(mut self, policy: AStackPolicy) -> TestRuntime {
        self.config.astack_policy = policy;
        self
    }

    /// E-stacks per server domain before LRU reclamation.
    pub fn max_estacks(mut self, n: usize) -> TestRuntime {
        self.config.max_estacks = n;
        self
    }

    /// How A-stack regions are mapped.
    pub fn astack_mapping(mut self, mapping: AStackMapping) -> TestRuntime {
        self.config.astack_mapping = mapping;
        self
    }

    /// An adaptive sizing plan applied at import.
    pub fn adapt(mut self, plan: Arc<crate::adapt::AdaptPlan>) -> TestRuntime {
        self.config.adapt = Some(plan);
        self
    }

    /// A record or replay session.
    pub fn session(mut self, session: Arc<replay::Session>) -> TestRuntime {
        self.session = session;
        self
    }

    /// Builds the runtime.
    pub fn build(self) -> Arc<LrpcRuntime> {
        let machine = self.machine.unwrap_or_else(|| {
            firefly::cpu::Machine::new(self.cpus, firefly::cost::CostModel::cvax_firefly())
        });
        LrpcRuntime::with_session(Kernel::new(machine), self.config, self.session)
    }
}
