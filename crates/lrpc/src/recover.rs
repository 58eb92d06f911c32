//! Client-side recovery policies.
//!
//! Section 5.3 gives LRPC its failure *semantics* — call-failed when a
//! domain terminates mid-call, call-aborted when a client abandons a
//! captured thread, binding revocation so "no further calls" cross a dead
//! domain's boundary. This module builds the client-side *policies* on top
//! of those mechanisms:
//!
//! * a per-call **deadline**: a watchdog detects a thread stuck inside a
//!   hung or terminated server and drives the real call-aborted path
//!   ([`crate::LrpcRuntime::abandon_captured`] → replacement thread);
//! * a **retry policy** with capped exponential backoff and seeded
//!   jitter, applied only to procedures declared `[idempotent = 1]` in
//!   the IDL — backoff is charged to the *virtual* clock, keeping chaos
//!   runs deterministic;
//! * a per-binding **circuit breaker** that trips after consecutive
//!   binding-level failures, rejects a fixed number of calls while open
//!   (deterministic — no wall-clock cooldowns), and re-imports through
//!   the name server on its half-open probe;
//! * **graceful degradation**: when the local server is gone for good and
//!   a remote transport exports the same interface, the client falls back
//!   to the conventional-RPC path of Section 5.1.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

use firefly::fault::splitmix64;
use firefly::meter::{Meter, Phase};
use firefly::time::Nanos;
use idl::wire::Value;
use kernel::thread::Thread;
use kernel::Domain;
use parking_lot::Mutex;

use crate::binding::Binding;
use crate::call::CallOutcome;
use crate::error::CallError;
use crate::runtime::LrpcRuntime;

/// Capped exponential backoff with deterministic jitter.
#[derive(Clone, Debug)]
pub struct RetryPolicy {
    /// Retries after the first attempt (0 disables retrying).
    pub max_retries: u32,
    /// Backoff before the first retry.
    pub base_backoff: Nanos,
    /// Backoff ceiling.
    pub max_backoff: Nanos,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_retries: 3,
            base_backoff: Nanos::from_micros(500),
            max_backoff: Nanos::from_millis(50),
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries.
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            max_retries: 0,
            ..RetryPolicy::default()
        }
    }

    /// Backoff before retry `attempt` (1-based): `base * 2^(attempt-1)`
    /// capped at `max_backoff`, plus up to 25% seeded jitter.
    pub fn backoff(&self, attempt: u32, jitter_state: &mut u64) -> Nanos {
        let exp = self.base_backoff * 2u64.saturating_pow(attempt.saturating_sub(1));
        let capped = exp.min(self.max_backoff);
        let jitter_ns = if capped.is_zero() {
            0
        } else {
            splitmix64(jitter_state) % (capped.as_nanos() / 4).max(1)
        };
        capped + Nanos::from_nanos(jitter_ns)
    }

    /// True for errors worth retrying at all: transient resource
    /// exhaustion, network trouble, or a one-off server fault. Failures
    /// that indicate the *binding* is dead (revocation, termination) are
    /// the circuit breaker's and re-import's business, not blind retry's.
    pub fn is_retryable(e: &CallError) -> bool {
        matches!(
            e,
            CallError::NoAStacks
                | CallError::AStackBusy
                | CallError::Network(_)
                | CallError::ServerFault(_)
        )
    }
}

/// Circuit-breaker tunables.
#[derive(Clone, Copy, Debug)]
pub struct BreakerConfig {
    /// Consecutive binding-level failures that trip the breaker.
    pub trip_after: u32,
    /// Calls rejected (with [`CallError::CircuitOpen`]) while open before
    /// the next call becomes the half-open probe. Counting calls instead
    /// of wall-clock time keeps chaos runs bit-reproducible.
    pub cooldown_rejects: u32,
}

impl Default for BreakerConfig {
    fn default() -> BreakerConfig {
        BreakerConfig {
            trip_after: 3,
            cooldown_rejects: 2,
        }
    }
}

/// Observable breaker state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BreakerState {
    /// Calls flow; consecutive failures are being counted.
    Closed,
    /// Calls are rejected outright.
    Open,
    /// The next call is a probe; its outcome closes or reopens the
    /// breaker.
    HalfOpen,
}

enum Inner {
    Closed { failures: u32 },
    Open { rejects_left: u32 },
    HalfOpen,
}

/// A deterministic per-binding circuit breaker.
pub struct CircuitBreaker {
    config: BreakerConfig,
    inner: Mutex<Inner>,
    /// Mirrors the state as a gauge (0 = closed, 1 = open, 2 = half-open),
    /// updated at every transition while the inner lock is held so
    /// exported snapshots never show a state the breaker was not in.
    state_gauge: obs::Gauge,
}

impl CircuitBreaker {
    /// A closed breaker.
    pub fn new(config: BreakerConfig) -> CircuitBreaker {
        CircuitBreaker {
            config,
            inner: Mutex::new(Inner::Closed { failures: 0 }),
            state_gauge: obs::Gauge::new(),
        }
    }

    /// The current state.
    pub fn state(&self) -> BreakerState {
        match *self.inner.lock() {
            Inner::Closed { .. } => BreakerState::Closed,
            Inner::Open { .. } => BreakerState::Open,
            Inner::HalfOpen => BreakerState::HalfOpen,
        }
    }

    /// The live state gauge (0 = closed, 1 = open, 2 = half-open); a
    /// clone can be adopted into a metrics registry.
    pub fn state_gauge(&self) -> &obs::Gauge {
        &self.state_gauge
    }

    fn gauge_value(inner: &Inner) -> i64 {
        match inner {
            Inner::Closed { .. } => 0,
            Inner::Open { .. } => 1,
            Inner::HalfOpen => 2,
        }
    }

    /// Gate for one call. `Ok(true)` means the call is the half-open
    /// probe (the caller should re-import before attempting it);
    /// `Ok(false)` is an ordinary admitted call.
    pub fn admit(&self) -> Result<bool, CallError> {
        let mut inner = self.inner.lock();
        match &mut *inner {
            Inner::Closed { .. } => Ok(false),
            Inner::HalfOpen => Ok(true),
            Inner::Open { rejects_left } => {
                if *rejects_left > 0 {
                    *rejects_left -= 1;
                    Err(CallError::CircuitOpen)
                } else {
                    *inner = Inner::HalfOpen;
                    self.state_gauge.set(Self::gauge_value(&inner));
                    Ok(true)
                }
            }
        }
    }

    /// Reports a successful call: closes the breaker and clears the
    /// failure count.
    pub fn on_success(&self) {
        let mut inner = self.inner.lock();
        *inner = Inner::Closed { failures: 0 };
        self.state_gauge.set(Self::gauge_value(&inner));
    }

    /// Reports a binding-level failure; trips the breaker after
    /// `trip_after` consecutive ones, and reopens it from half-open.
    pub fn on_failure(&self) {
        let mut inner = self.inner.lock();
        match &mut *inner {
            Inner::Closed { failures } => {
                *failures += 1;
                if *failures >= self.config.trip_after {
                    *inner = Inner::Open {
                        rejects_left: self.config.cooldown_rejects,
                    };
                }
            }
            Inner::HalfOpen => {
                *inner = Inner::Open {
                    rejects_left: self.config.cooldown_rejects,
                };
            }
            Inner::Open { .. } => {}
        }
        self.state_gauge.set(Self::gauge_value(&inner));
    }

    /// True for failures that should count against the breaker: the
    /// binding (or the domain behind it) is gone, not merely busy.
    pub fn counts(e: &CallError) -> bool {
        matches!(
            e,
            CallError::CallFailed
                | CallError::CallAborted
                | CallError::BindingRevoked
                | CallError::InvalidBinding(_)
                | CallError::DomainDead
                | CallError::ImportTimeout { .. }
        )
    }
}

/// Recovery tunables for a [`ResilientClient`].
#[derive(Clone, Debug, Default)]
pub struct RecoveryConfig {
    /// Host-time budget per attempt. When it expires the watchdog assumes
    /// the thread is captured by a hung/terminated server and abandons it
    /// (Section 5.3's call-aborted path). `None` disables the watchdog.
    pub deadline: Option<Duration>,
    /// Retry policy for idempotent procedures.
    pub retry: RetryPolicy,
    /// Circuit-breaker settings.
    pub breaker: BreakerConfig,
    /// Fall back to the conventional-RPC transport when the local server
    /// is gone and the transport exports the interface.
    pub fallback_remote: bool,
    /// Seed for the retry jitter stream.
    pub jitter_seed: u64,
}

/// A client-side wrapper that applies deadline, retry, circuit-breaker
/// and degradation policies around a [`Binding`].
///
/// The wrapper owns the client's calling thread so the watchdog can swap
/// in the kernel-made replacement after abandoning a captured one. Worker
/// handles for calls still stuck inside a server are retained; once the
/// hang is released (e.g. [`firefly::fault::FaultPlan::release_hangs`]),
/// [`ResilientClient::drain`] joins them and surfaces their (aborted)
/// results to the invariant checks.
pub struct ResilientClient {
    rt: Arc<LrpcRuntime>,
    client_domain: Arc<Domain>,
    interface: String,
    binding: Mutex<Arc<Binding>>,
    thread: Mutex<Arc<Thread>>,
    breaker: CircuitBreaker,
    config: RecoveryConfig,
    jitter: Mutex<u64>,
    errors: Mutex<Vec<String>>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
    degraded: AtomicBool,
    aborted_calls: Mutex<u64>,
    /// Retries performed (registered with the runtime's metrics registry
    /// as `lrpc_retries_total:<interface>`).
    retries: obs::Counter,
}

impl ResilientClient {
    /// Imports `interface` into `client_domain` and wraps the binding.
    pub fn import(
        rt: &Arc<LrpcRuntime>,
        client_domain: &Arc<Domain>,
        interface: &str,
        config: RecoveryConfig,
    ) -> Result<ResilientClient, CallError> {
        let binding = Arc::new(rt.import(client_domain, interface)?);
        let thread = rt.kernel().spawn_thread(client_domain);
        let breaker = CircuitBreaker::new(config.breaker);
        rt.metrics().register_gauge(
            &format!("lrpc_breaker_state:{interface}"),
            breaker.state_gauge().clone(),
        );
        let retries = rt
            .metrics()
            .counter(&format!("lrpc_retries_total:{interface}"));
        Ok(ResilientClient {
            rt: Arc::clone(rt),
            client_domain: Arc::clone(client_domain),
            interface: interface.to_string(),
            binding: Mutex::new(binding),
            thread: Mutex::new(thread),
            breaker,
            jitter: Mutex::new(config.jitter_seed ^ 0x5245_5452_594A_5431u64),
            config,
            errors: Mutex::new(Vec::new()),
            workers: Mutex::new(Vec::new()),
            degraded: AtomicBool::new(false),
            aborted_calls: Mutex::new(0),
            retries,
        })
    }

    /// The breaker's current state.
    pub fn breaker_state(&self) -> BreakerState {
        self.breaker.state()
    }

    /// True once the client has degraded to the remote transport.
    pub fn is_degraded(&self) -> bool {
        self.degraded.load(Ordering::Acquire)
    }

    /// Calls abandoned by the deadline watchdog so far.
    pub fn aborted_calls(&self) -> u64 {
        *self.aborted_calls.lock()
    }

    /// The client-observed error sequence, in call order — the
    /// reproducibility witness the chaos tests compare across runs.
    pub fn error_log(&self) -> Vec<String> {
        self.errors.lock().clone()
    }

    /// The current calling thread (changes after a watchdog abort).
    pub fn thread(&self) -> Arc<Thread> {
        Arc::clone(&self.thread.lock())
    }

    /// The current binding (changes after re-import or degradation).
    pub fn binding(&self) -> Arc<Binding> {
        Arc::clone(&self.binding.lock())
    }

    fn log_error(&self, proc: &str, e: &CallError) {
        self.errors.lock().push(format!("{proc}: {e}"));
    }

    /// One call under the full policy stack.
    pub fn call(&self, proc: &str, args: &[Value]) -> Result<CallOutcome, CallError> {
        // 1. Circuit breaker gate.
        let probe = match self.breaker.admit() {
            Ok(p) => p,
            Err(e) => {
                self.log_error(proc, &e);
                return Err(e);
            }
        };
        // 2. Half-open probe: re-import through the name server — the
        //    old binding may be revoked while a restarted server exports
        //    the same interface under a fresh clerk.
        if probe && !self.is_degraded() {
            match self.rt.import(&self.client_domain, &self.interface) {
                Ok(fresh) => *self.binding.lock() = Arc::new(fresh),
                Err(e) => {
                    self.breaker.on_failure();
                    self.log_error(proc, &e);
                    return self.try_degrade(proc, args, e);
                }
            }
        }

        let binding = self.binding();
        let index = match binding.proc_index(proc) {
            Ok(i) => i,
            Err(e) => {
                self.log_error(proc, &e);
                return Err(e);
            }
        };
        let idempotent = binding.interface().procs[index].pd.idempotent;
        let budget = if idempotent {
            self.config.retry.max_retries
        } else {
            0
        };

        let mut attempt = 0u32;
        loop {
            let result = self.attempt(&binding, index, args);
            match result {
                Ok(out) => {
                    self.breaker.on_success();
                    return Ok(out);
                }
                Err(e) => {
                    self.log_error(proc, &e);
                    if CircuitBreaker::counts(&e) {
                        self.breaker.on_failure();
                        return self.try_degrade(proc, args, e);
                    }
                    if attempt < budget && RetryPolicy::is_retryable(&e) {
                        attempt += 1;
                        self.retries.inc();
                        // Backoff burns *virtual* time: determinism is
                        // preserved and the latency shows up on the same
                        // clock every other cost uses. It belongs to no
                        // call, so its meter records no span.
                        let pause = self.config.retry.backoff(attempt, &mut self.jitter.lock());
                        let cpu = self.rt.kernel().machine().cpu(0);
                        Meter::disabled().charge(cpu, Phase::Wait, pause);
                        continue;
                    }
                    return Err(e);
                }
            }
        }
    }

    /// One attempt, with the deadline watchdog when configured.
    fn attempt(
        &self,
        binding: &Arc<Binding>,
        index: usize,
        args: &[Value],
    ) -> Result<CallOutcome, CallError> {
        let thread = self.thread();
        let Some(deadline) = self.config.deadline else {
            return binding.call_indexed(0, &thread, index, args);
        };

        let (tx, rx) = mpsc::channel();
        let worker = {
            let binding = Arc::clone(binding);
            let thread = Arc::clone(&thread);
            let args = args.to_vec();
            std::thread::spawn(move || {
                let _ = tx.send(binding.call_indexed(0, &thread, index, &args));
            })
        };
        match rx.recv_timeout(deadline) {
            Ok(result) => {
                let _ = worker.join();
                result
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {
                // The thread is stuck inside the server. Abandon it: the
                // kernel builds a replacement "as if it had just returned
                // from the server procedure with a call-aborted
                // exception" (Section 5.3); the captured original is
                // destroyed whenever the server finally releases it.
                match self.rt.abandon_captured(&thread) {
                    Some(replacement) => {
                        *self.thread.lock() = replacement;
                        *self.aborted_calls.lock() += 1;
                        self.workers.lock().push(worker);
                        Err(CallError::CallAborted)
                    }
                    None => {
                        // Not captured after all (merely slow); take the
                        // real result.
                        let result = rx.recv().unwrap_or(Err(CallError::CallAborted));
                        let _ = worker.join();
                        result
                    }
                }
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                let _ = worker.join();
                Err(CallError::CallAborted)
            }
        }
    }

    /// Graceful degradation: if enabled and the interface is exported
    /// over the remote transport, swap the binding for a remote one and
    /// make the call through the conventional-RPC branch.
    fn try_degrade(
        &self,
        proc: &str,
        args: &[Value],
        original: CallError,
    ) -> Result<CallOutcome, CallError> {
        if !self.config.fallback_remote {
            return Err(original);
        }
        let already = self.is_degraded();
        if !already {
            let Some(transport) = self.rt.remote_transport() else {
                return Err(original);
            };
            if !transport.exports(&self.interface) {
                return Err(original);
            }
            match self.rt.import_remote(&self.client_domain, &self.interface) {
                Ok(remote) => {
                    *self.binding.lock() = Arc::new(remote);
                    self.degraded.store(true, Ordering::Release);
                }
                Err(e) => {
                    self.log_error(proc, &e);
                    return Err(original);
                }
            }
        } else {
            // Already degraded and still failing: nothing further to
            // fall back to.
            return Err(original);
        }
        let binding = self.binding();
        let thread = self.thread();
        let index = binding.proc_index(proc)?;
        let result = binding.call_indexed(0, &thread, index, args);
        match &result {
            Ok(_) => self.breaker.on_success(),
            Err(e) => self.log_error(proc, e),
        }
        result
    }

    /// Joins every worker whose call was abandoned (they unblock once the
    /// hang is released or the server is terminated). Returns the number
    /// joined. Call before checking leak invariants.
    pub fn drain(&self) -> usize {
        let workers: Vec<_> = self.workers.lock().drain(..).collect();
        let n = workers.len();
        for w in workers {
            let _ = w.join();
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breaker_trips_rejects_and_probes() {
        let b = CircuitBreaker::new(BreakerConfig {
            trip_after: 2,
            cooldown_rejects: 2,
        });
        assert_eq!(b.state(), BreakerState::Closed);
        b.on_failure();
        assert_eq!(b.state(), BreakerState::Closed);
        b.on_failure();
        assert_eq!(b.state(), BreakerState::Open);
        // Two rejected calls...
        assert!(matches!(b.admit(), Err(CallError::CircuitOpen)));
        assert!(matches!(b.admit(), Err(CallError::CircuitOpen)));
        // ...then the next is the half-open probe.
        assert!(b.admit().unwrap());
        assert_eq!(b.state(), BreakerState::HalfOpen);
        // A failing probe reopens; a succeeding one closes.
        b.on_failure();
        assert_eq!(b.state(), BreakerState::Open);
        assert!(b.admit().is_err());
        assert!(b.admit().is_err());
        assert!(b.admit().unwrap());
        b.on_success();
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(!b.admit().unwrap());
    }

    #[test]
    fn success_resets_the_consecutive_count() {
        let b = CircuitBreaker::new(BreakerConfig {
            trip_after: 2,
            cooldown_rejects: 1,
        });
        b.on_failure();
        b.on_success();
        b.on_failure();
        assert_eq!(b.state(), BreakerState::Closed, "count was reset");
    }

    #[test]
    fn backoff_grows_caps_and_jitters_deterministically() {
        let p = RetryPolicy {
            max_retries: 10,
            base_backoff: Nanos::from_micros(100),
            max_backoff: Nanos::from_micros(800),
        };
        let mut s1 = 42u64;
        let mut s2 = 42u64;
        let a: Vec<Nanos> = (1..=6).map(|i| p.backoff(i, &mut s1)).collect();
        let b: Vec<Nanos> = (1..=6).map(|i| p.backoff(i, &mut s2)).collect();
        assert_eq!(a, b, "same seed, same jitter");
        // Exponential up to the cap (jitter adds at most 25%).
        assert!(a[0] >= Nanos::from_micros(100) && a[0] < Nanos::from_micros(126));
        assert!(a[1] >= Nanos::from_micros(200) && a[1] < Nanos::from_micros(251));
        assert!(a[5] >= Nanos::from_micros(800) && a[5] <= Nanos::from_micros(1000));
    }

    #[test]
    fn error_classification() {
        assert!(RetryPolicy::is_retryable(&CallError::NoAStacks));
        assert!(RetryPolicy::is_retryable(&CallError::Network("x".into())));
        assert!(!RetryPolicy::is_retryable(&CallError::BindingRevoked));
        assert!(!RetryPolicy::is_retryable(&CallError::CircuitOpen));
        assert!(CircuitBreaker::counts(&CallError::CallFailed));
        assert!(CircuitBreaker::counts(&CallError::BindingRevoked));
        assert!(!CircuitBreaker::counts(&CallError::NoAStacks));
        assert!(!CircuitBreaker::counts(&CallError::ServerFault("x".into())));
    }
}
