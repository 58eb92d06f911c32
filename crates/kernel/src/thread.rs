//! Threads and their control blocks.
//!
//! LRPC's control transfer migrates the *client's* concrete thread into the
//! server's domain; the kernel records each outstanding call as a *linkage
//! record* on a stack in the thread control block ("The stack is necessary
//! so that a thread can be involved in more than one cross-domain procedure
//! call at a time", Section 3.2).
//!
//! Domain termination (Section 5.3) invalidates linkage records in place:
//! "When a thread returns from an LRPC call, it follows the stack of
//! linkage records referenced by the thread control block, returning to the
//! domain specified in the first valid linkage record. If any invalid
//! linkage records are found on the way, a call-failed exception is raised
//! in the caller. If the stack contains no valid linkage records, the
//! thread is destroyed."

use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

use crate::ids::{DomainId, ThreadId};
use crate::objects::RawHandle;

/// One outstanding cross-domain call, as recorded by the kernel.
#[derive(Clone, Copy, Debug)]
pub struct Linkage {
    /// Domain the call came from (where the thread returns to).
    pub caller_domain: DomainId,
    /// Domain being called.
    pub callee_domain: DomainId,
    /// The Binding Object the call was made through.
    pub binding: RawHandle,
    /// Index of the A-stack/linkage pair in use.
    pub astack_index: usize,
    /// Procedure index within the interface.
    pub proc_index: usize,
    /// The caller's saved stack pointer (simulated).
    pub return_sp: u64,
    /// False once the termination collector has invalidated this record.
    pub valid: bool,
}

/// Scheduling status of a thread.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ThreadStatus {
    /// Runnable or running.
    Running,
    /// Blocked (waiting for an A-stack, a binding reply, ...).
    Blocked,
    /// Destroyed by the kernel; it will never run again.
    Destroyed,
}

/// Where a returning thread should go, per the Section 5.3 rules.
#[derive(Clone, Copy, Debug)]
pub enum ReturnPath {
    /// Return to `to.caller_domain`; if `call_failed` is set, the caller
    /// sees a call-failed exception (some linkage on the way was invalid).
    Return {
        /// The first valid linkage record found from the top.
        to: Linkage,
        /// True if invalid records were skipped on the way.
        call_failed: bool,
    },
    /// No valid linkage remained: the kernel destroys the thread.
    DestroyThread,
}

#[derive(Debug)]
struct ThreadInner {
    current_domain: DomainId,
    linkages: Vec<Linkage>,
    status: ThreadStatus,
    /// Set when the client abandoned this thread after a server captured
    /// it; an abandoned thread is destroyed on release instead of
    /// returning.
    abandoned: bool,
}

/// A kernel thread.
pub struct Thread {
    id: ThreadId,
    home_domain: DomainId,
    inner: Mutex<ThreadInner>,
    /// The simulated user stack pointer; the kernel points it at an
    /// E-stack in the server's domain during an LRPC ("updates the
    /// thread's user stack pointer to run off of the new E-stack"). It is
    /// never read or written together with the control block's other
    /// fields, so it sits beside the lock rather than under it. Stores
    /// release and loads acquire, so a host thread that reads the pointer
    /// also sees what its writer did before setting it, as under the lock.
    user_sp: AtomicU64,
}

impl Thread {
    /// Creates a runnable thread homed in `home`. Used by the kernel;
    /// library users call `Kernel::spawn_thread`.
    pub fn new(id: ThreadId, home: DomainId) -> Thread {
        Thread {
            id,
            home_domain: home,
            inner: Mutex::new(ThreadInner {
                current_domain: home,
                linkages: Vec::new(),
                status: ThreadStatus::Running,
                abandoned: false,
            }),
            user_sp: AtomicU64::new(0),
        }
    }

    /// The thread's id.
    pub fn id(&self) -> ThreadId {
        self.id
    }

    /// The domain the thread was created in.
    pub fn home_domain(&self) -> DomainId {
        self.home_domain
    }

    /// The domain the thread is currently executing in.
    pub fn current_domain(&self) -> DomainId {
        self.inner.lock().current_domain
    }

    /// Moves the thread's execution into `domain` (the kernel does this on
    /// each LRPC transfer).
    pub fn set_current_domain(&self, domain: DomainId) {
        self.inner.lock().current_domain = domain;
    }

    /// Current status.
    pub fn status(&self) -> ThreadStatus {
        self.inner.lock().status
    }

    /// Updates the status.
    pub fn set_status(&self, s: ThreadStatus) {
        self.inner.lock().status = s;
    }

    /// Number of outstanding cross-domain calls.
    pub fn call_depth(&self) -> usize {
        self.inner.lock().linkages.len()
    }

    /// The simulated user stack pointer.
    pub fn user_sp(&self) -> u64 {
        self.user_sp.load(Ordering::Acquire)
    }

    /// Points the user stack pointer somewhere (an E-stack on call, the
    /// saved caller stack on return).
    pub fn set_user_sp(&self, sp: u64) {
        self.user_sp.store(sp, Ordering::Release);
    }

    /// Pushes a linkage record (call time) and moves execution into the
    /// callee domain.
    pub fn push_linkage(&self, linkage: Linkage) {
        let mut inner = self.inner.lock();
        inner.current_domain = linkage.callee_domain;
        inner.linkages.push(linkage);
    }

    /// Pops linkage records (return time), applying the Section 5.3 rules:
    /// skip invalid records (raising call-failed), return to the first
    /// valid one, destroy the thread if none remain or if it was abandoned
    /// by its client.
    pub fn pop_linkage(&self) -> ReturnPath {
        let mut inner = self.inner.lock();
        if inner.abandoned {
            inner.linkages.clear();
            inner.status = ThreadStatus::Destroyed;
            return ReturnPath::DestroyThread;
        }
        let mut call_failed = false;
        while let Some(l) = inner.linkages.pop() {
            if l.valid {
                inner.current_domain = l.caller_domain;
                return ReturnPath::Return { to: l, call_failed };
            }
            call_failed = true;
        }
        inner.status = ThreadStatus::Destroyed;
        ReturnPath::DestroyThread
    }

    /// Snapshot of the linkage stack, bottom to top.
    pub fn linkages(&self) -> Vec<Linkage> {
        self.inner.lock().linkages.clone()
    }

    /// Invalidates every linkage record that involves `domain` as caller or
    /// callee; returns how many were invalidated. The termination collector
    /// calls this for every thread.
    pub fn invalidate_linkages_involving(&self, domain: DomainId) -> usize {
        let mut inner = self.inner.lock();
        let mut n = 0;
        for l in &mut inner.linkages {
            if l.valid && (l.caller_domain == domain || l.callee_domain == domain) {
                l.valid = false;
                n += 1;
            }
        }
        n
    }

    /// Marks the thread abandoned by its client (captured-thread recovery,
    /// Section 5.3); it will be destroyed when it next returns.
    pub fn abandon(&self) {
        self.inner.lock().abandoned = true;
    }

    /// True if the client has abandoned this thread.
    pub fn is_abandoned(&self) -> bool {
        self.inner.lock().abandoned
    }

    /// True if this thread is currently executing an LRPC on behalf of some
    /// caller (used by the termination collector's scan).
    pub fn in_lrpc(&self) -> bool {
        !self.inner.lock().linkages.is_empty()
    }
}

impl core::fmt::Debug for Thread {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("Thread")
            .field("id", &self.id)
            .field("home", &self.home_domain)
            .field("in", &inner.current_domain)
            .field("depth", &inner.linkages.len())
            .field("status", &inner.status)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn linkage(caller: u64, callee: u64, valid: bool) -> Linkage {
        Linkage {
            caller_domain: DomainId(caller),
            callee_domain: DomainId(callee),
            binding: RawHandle { id: 1, nonce: 1 },
            astack_index: 0,
            proc_index: 0,
            return_sp: 0,
            valid,
        }
    }

    #[test]
    fn push_moves_execution_pop_returns() {
        let t = Thread::new(ThreadId(1), DomainId(1));
        t.push_linkage(linkage(1, 2, true));
        assert_eq!(t.current_domain(), DomainId(2));
        assert_eq!(t.call_depth(), 1);
        match t.pop_linkage() {
            ReturnPath::Return { to, call_failed } => {
                assert_eq!(to.caller_domain, DomainId(1));
                assert!(!call_failed);
            }
            ReturnPath::DestroyThread => panic!("valid linkage must return"),
        }
        assert_eq!(t.current_domain(), DomainId(1));
    }

    #[test]
    fn nested_calls_unwind_in_order() {
        let t = Thread::new(ThreadId(1), DomainId(1));
        t.push_linkage(linkage(1, 2, true));
        t.push_linkage(linkage(2, 3, true));
        assert_eq!(t.current_domain(), DomainId(3));
        match t.pop_linkage() {
            ReturnPath::Return { to, .. } => assert_eq!(to.caller_domain, DomainId(2)),
            ReturnPath::DestroyThread => panic!(),
        }
        match t.pop_linkage() {
            ReturnPath::Return { to, .. } => assert_eq!(to.caller_domain, DomainId(1)),
            ReturnPath::DestroyThread => panic!(),
        }
    }

    #[test]
    fn invalid_linkage_raises_call_failed_in_next_valid_caller() {
        let t = Thread::new(ThreadId(1), DomainId(1));
        t.push_linkage(linkage(1, 2, true));
        t.push_linkage(linkage(2, 3, false)); // Domain 3 (or 2) died.
        match t.pop_linkage() {
            ReturnPath::Return { to, call_failed } => {
                assert_eq!(to.caller_domain, DomainId(1));
                assert!(call_failed, "skipping an invalid record raises call-failed");
            }
            ReturnPath::DestroyThread => panic!(),
        }
    }

    #[test]
    fn no_valid_linkage_destroys_thread() {
        let t = Thread::new(ThreadId(1), DomainId(1));
        t.push_linkage(linkage(1, 2, false));
        assert!(matches!(t.pop_linkage(), ReturnPath::DestroyThread));
        assert_eq!(t.status(), ThreadStatus::Destroyed);
    }

    #[test]
    fn collector_invalidation_targets_involved_domains_only() {
        let t = Thread::new(ThreadId(1), DomainId(1));
        t.push_linkage(linkage(1, 2, true));
        t.push_linkage(linkage(2, 3, true));
        assert_eq!(t.invalidate_linkages_involving(DomainId(3)), 1);
        let ls = t.linkages();
        assert!(ls[0].valid && !ls[1].valid);
        // Idempotent: already-invalid records are not counted again.
        assert_eq!(t.invalidate_linkages_involving(DomainId(3)), 0);
    }

    #[test]
    fn abandoned_thread_is_destroyed_on_release() {
        let t = Thread::new(ThreadId(1), DomainId(1));
        t.push_linkage(linkage(1, 2, true));
        t.abandon();
        assert!(matches!(t.pop_linkage(), ReturnPath::DestroyThread));
        assert_eq!(t.status(), ThreadStatus::Destroyed);
    }
}
