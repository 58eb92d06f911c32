//! Conventional message-passing RPC — the baselines LRPC is measured
//! against.
//!
//! Section 2.3 of the paper dissects why cross-domain calls are slow in
//! conventional RPC systems: stub overhead, message buffer management,
//! access validation, message transfer with up to four copies, rendezvous
//! scheduling between concrete threads, context switches, and dispatch.
//! This crate implements that execution path for real, in three copy
//! variants:
//!
//! * [`model::CopyVariant::FullCopy`] — the classic four-copy path
//!   (Accent, Mach, V, Amoeba);
//! * [`model::CopyVariant::Restricted`] — DASH's pre-mapped message region
//!   that eliminates the intermediate kernel copy;
//! * [`model::CopyVariant::SharedBuffers`] — SRC RPC's globally shared
//!   buffers guarded by a single global lock, with access validation
//!   skipped (fast, but trading safety, and the lock caps multiprocessor
//!   throughput — Figure 2).
//!
//! [`model::MsgRpcCost`] carries calibrated per-system overhead models for
//! all six Table 2 systems; [`net::RemoteMachine`] implements the
//! conventional network RPC stub that LRPC's remote-bit branch targets
//! (Section 5.1).

#![forbid(unsafe_code)]

pub mod internet;
pub mod marshal;
pub mod message;
pub mod model;
pub mod net;
pub mod receiver;
pub mod system;

pub use internet::Internet;
pub use message::{Message, Port};
pub use model::{CopyVariant, MsgRpcCost};
pub use net::{packets_for, RemoteMachine};
pub use receiver::{DispatchAction, ReceiverPool};
pub use system::{MsgCallOutcome, MsgHandler, MsgRpcSystem, MsgServer, GLOBAL_RPC_LOCK};
