//! Taos-style small kernel for the LRPC reproduction.
//!
//! The paper integrates LRPC into Taos, the Firefly's operating system: "a
//! medium-sized privileged kernel accessed through traps is responsible for
//! thread scheduling, virtual memory, and device access". This crate is
//! that kernel, reduced to the parts LRPC interacts with:
//!
//! * [`domain::Domain`] — protection domains with lifecycle state, owned
//!   resources and the idle-processor counters of Section 3.4;
//! * [`thread::Thread`] — threads whose control blocks carry the linkage
//!   stack LRPC uses for call/return, with the Section 5.3 unwinding rules
//!   (call-failed on invalid linkages, destruction when none remain);
//! * [`objects::HandleTable`] — forgery-detectable kernel object handles
//!   (the mechanism behind Binding Objects);
//! * [`nameserver::NameServer`] — interface registration and blocking
//!   import;
//! * [`sched`] — the policy that prods idle processors to spin in the
//!   domains showing the most LRPC activity;
//! * [`kernel::Kernel`] — the facade: domain/thread creation, pairwise
//!   shared-memory mapping, trap accounting and the termination collector.

#![forbid(unsafe_code)]

pub mod domain;
pub mod ids;
pub mod kernel;
pub mod nameserver;
pub mod objects;
pub mod sched;
pub mod thread;

pub use domain::{Domain, DomainState};
pub use ids::{DomainId, ThreadId};
pub use kernel::{DomainSnapshot, Kernel, KernelSnapshot, TerminationReport};
pub use nameserver::NameServer;
pub use objects::{HandleError, HandleTable, RawHandle};
pub use sched::prod_idle_processors;
pub use thread::{Linkage, ReturnPath, Thread, ThreadStatus};
