//! Simulated DEC SRC Firefly multiprocessor workstation.
//!
//! This crate is the hardware substrate of the LRPC reproduction. The paper
//! (Bershad, Anderson, Lazowska, Levy — *Lightweight Remote Procedure
//! Call*, SOSP 1989) implements LRPC inside Taos on a C-VAX Firefly; this
//! crate provides the pieces of that machine the measurements depend on:
//!
//! * [`cpu::Machine`] / [`cpu::Cpu`] — processors with per-CPU virtual
//!   clocks, mapping registers and idle-in-domain state (the hook for the
//!   idle-processor optimization of Section 3.4);
//! * [`mem`] / [`vm`] — physical memory regions and per-domain
//!   virtual-memory contexts with enforced protection (the software MMU);
//! * [`tlb`] — an invalidate-on-switch (or tagged) TLB model whose miss
//!   counts emerge from the pages the call paths actually touch;
//! * [`cost`] — calibrated per-phase cost models (C-VAX Firefly,
//!   MicroVAX II Firefly, and the Table 2 processors);
//! * [`meter`] — where-did-the-time-go recording (regenerates Table 5);
//! * [`contention`] — a deterministic virtual-time contention simulator
//!   (regenerates Figure 2);
//! * [`idhash`] — the one hasher for simulator-generated ids;
//! * [`fault`] — a seeded, deterministic fault-injection plan the upper
//!   layers consult to exercise the Section 5.3 failure paths.
//!
//! Timing methodology: the functional code in the upper crates runs for
//! real (real byte copies, real locks); as it runs it charges calibrated
//! simulated costs to the executing [`cpu::Cpu`]. Latency results read the
//! virtual clock, so they are deterministic and host-independent.

#![forbid(unsafe_code)]

pub mod contention;
pub mod cost;
pub mod cpu;
pub mod error;
pub mod fault;
pub mod idhash;
pub mod mem;
pub mod meter;
pub mod time;
pub mod tlb;
pub mod vm;

pub use contention::{
    simulate_throughput, CallProfile, PerCpuResources, ResourceId, ResourcePlan, Seg,
    ThroughputReport,
};
pub use cost::{CostModel, ProcessorTimings};
pub use cpu::{Cpu, Machine};
pub use error::MemFault;
pub use fault::{DispatchFault, FaultConfig, FaultEvent, FaultKind, FaultPlan, PacketFate};
pub use mem::{PageId, PhysMem, Region, RegionId, PAGE_SIZE};
pub use meter::{LockTally, Meter, Phase, Segment};
pub use time::Nanos;
pub use tlb::{Tlb, TlbMode};
pub use vm::{ContextId, Protection, VmContext};
