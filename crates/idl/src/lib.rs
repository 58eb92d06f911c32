//! Interface definition language and stub generation for LRPC.
//!
//! This crate is the reproduction's stand-in for the Modula2+ definition
//! files and the LRPC stub generator of Section 3.3:
//!
//! * [`parse()`](parse::parse) — a small IDL whose annotations carry exactly the
//!   distinctions the paper's optimizations rely on (`in`/`out`/`inout`,
//!   `ref`, `noninterpreted`, `[astacks = N]`, `[astack_size = N]`);
//! * [`types`] / [`ast`] — the type model separating fixed-size, variable,
//!   and complex (marshal-by-library) types;
//! * [`layout`] — A-stack frame layout and the Section 5.2 sizing rules
//!   (exact for fixed procedures, Ethernet-packet default for variable,
//!   out-of-band segments for oversized or complex values);
//! * [`stubgen`] — compiles interfaces to frame layouts and Procedure
//!   Descriptor Lists, choosing at compile time between assembly fast-path
//!   stubs and Modula2+ marshaling stubs;
//! * [`plan`] — the bind-time specializer: lowers each procedure's frame
//!   layout into fused, zero-allocation copy plans, one per stub half;
//! * [`stubvm`] — the stub interpreter: performs a stub half's moves slot
//!   by slot, charging calibrated costs (the marshaling path is 4×
//!   slower); the plans' charge-identical reference and the path for the
//!   halves no plan covers (complex types, out-of-band slots);
//! * [`wire`] — byte encodings with receiver-side conformance checks
//!   folded into the copy (Section 3.5).

pub mod ast;
pub mod copyops;
pub mod layout;
pub mod parse;
pub mod plan;
pub mod print;
pub mod stubgen;
pub mod stubvm;
pub mod types;
pub mod wire;

pub use ast::{Dir, InterfaceDef, Param, ProcDef};
pub use copyops::{CopyLog, CopyOp};
pub use layout::{FrameLayout, Slot, SlotKind, ETHERNET_PACKET_SIZE};
pub use parse::{parse, ParseError};
pub use plan::{ArgVec, InterfacePlans, ProcPlan, ARGVEC_INLINE, SCRATCH_BYTES};
pub use print::print_interface;
pub use stubgen::{
    compile, CompiledInterface, CompiledProc, ProcedureDescriptor, StubLang, DEFAULT_ASTACK_COUNT,
};
pub use stubvm::{
    needs_server_copy, Frame, LocalFrame, OobStore, StubError, StubVm, MODULA2_SLOWDOWN,
};
pub use types::{ComplexKind, Ty};
pub use wire::{decode, decode_checked, encode, encode_vec, TreeVal, Value, WireError};
