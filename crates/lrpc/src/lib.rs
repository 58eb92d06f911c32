//! Lightweight Remote Procedure Call.
//!
//! A from-scratch Rust reproduction of *Lightweight Remote Procedure Call*
//! (Bershad, Anderson, Lazowska, Levy — SOSP 1989): a communication
//! facility for protection domains on the same machine that combines the
//! control-transfer model of capability systems (the client's thread runs
//! the server's procedure) with the programming semantics of RPC.
//!
//! The four techniques of the paper map to these modules:
//!
//! * **Simple control transfer** — [`call`]: kernel-validated direct
//!   transfer of the client's thread into the server domain, linkage
//!   records on the thread control block.
//! * **Simple data transfer** — [`astack`]: pairwise-mapped, contiguously
//!   allocated argument stacks with LIFO free queues; arguments are copied
//!   once, from the client stub straight onto the shared A-stack.
//! * **Simple stubs** — the `idl` crate's frame layouts, lowered once per
//!   export into straight-line copy plans (the stub VM interprets the
//!   halves no plan covers).
//! * **Design for concurrency** — lock-free per-class A-stack free lists
//!   (no process-global lock anywhere on the call path), and the
//!   idle-processor domain-caching optimization.
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//! use firefly::cpu::Machine;
//! use idl::wire::Value;
//! use kernel::kernel::Kernel;
//! use lrpc::{Handler, LrpcRuntime, Reply};
//!
//! let kernel = Kernel::new(Machine::cvax_firefly());
//! let rt = LrpcRuntime::new(kernel);
//!
//! let server = rt.kernel().create_domain("adder");
//! rt.export(
//!     &server,
//!     "interface Math { procedure Add(a: int32, b: int32) -> int32; }",
//!     vec![Box::new(|_ctx: &lrpc::ServerCtx, args: &[Value]| {
//!         let (Value::Int32(a), Value::Int32(b)) = (&args[0], &args[1]) else {
//!             unreachable!("stubs decoded the declared types");
//!         };
//!         Ok(Reply::value(Value::Int32(a + b)))
//!     }) as Handler],
//! )
//! .expect("export succeeds");
//!
//! let client = rt.kernel().create_domain("app");
//! let thread = rt.kernel().spawn_thread(&client);
//! let binding = rt.import(&client, "Math").expect("import succeeds");
//! let outcome = binding.call(0, &thread, "Add", &[Value::Int32(2), Value::Int32(3)]).unwrap();
//! assert_eq!(outcome.ret, Some(Value::Int32(5)));
//! ```

#![forbid(unsafe_code)]

pub mod adapt;
pub mod astack;
pub mod binding;
pub mod bulk;
pub mod call;
pub mod error;
pub mod estack;
mod index_stack;
pub mod recover;
pub mod remote;
pub mod ring;
pub mod runtime;
pub mod touch;

pub use adapt::{AdaptConfig, AdaptPlan, ClassSnapshot, Recommendation};
pub use astack::{AStackMapping, AStackPolicy, AStackSet, LinkageSlot};
pub use binding::{Binding, BindingState, BindingStats, Clerk, Handler, Reply, ServerCtx};
pub use bulk::{BulkArena, BulkChunk};
pub use call::{CallOutcome, ASTACK_QUEUE_LOCK, OOB_SEGMENT_COST};
pub use error::CallError;
pub use estack::{EStackPool, EStackStats};
pub use recover::{
    BreakerConfig, BreakerState, CircuitBreaker, RecoveryConfig, ResilientClient, RetryPolicy,
};
pub use remote::{RemoteReply, RemoteTransport};
pub use ring::{BatchOutcome, CallRing, RING_SLOTS};
pub use runtime::{LrpcRuntime, RuntimeConfig, TestRuntime};
pub use touch::TouchPlan;
