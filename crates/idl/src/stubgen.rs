//! The stub generator.
//!
//! "The LRPC stub generator produces run-time stubs in assembly language
//! directly from Modula2+ definition files. The use of assembly language is
//! possible because of the simplicity and stylized nature of LRPC stubs,
//! which consist mainly of move and trap instructions. ... The stub
//! generator emits Modula2+ code for more complicated, but less frequently
//! traveled execution paths. ... Calls having complex or heavyweight
//! parameters ... are handled with Modula2+ marshaling code. ... This
//! shift occurs at compile-time, eliminating the need to make run-time
//! decisions." (Section 3.3)
//!
//! In this reproduction the generator's output is, per procedure, the
//! A-stack [`FrameLayout`], the [`ProcedureDescriptor`] and the
//! [`StubLang`] (Modula2+ when the signature has a complex type). At bind
//! time [`crate::plan`] lowers each stub half from the layout into a copy
//! plan; [`crate::stubvm`] interprets the halves no plan covers.

use crate::ast::{InterfaceDef, ProcDef};
use crate::layout::{layout, FrameLayout, Slot, SlotKind};
use crate::types::Ty;

/// Default number of simultaneous calls (A-stacks) per procedure
/// (Section 5.2: "The number defaults to five").
pub const DEFAULT_ASTACK_COUNT: u32 = 5;

/// The language a stub was generated in.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StubLang {
    /// Optimized assembly — the common-case fast path.
    Assembly,
    /// Modula2+ marshaling code — complex/heavyweight parameters.
    Modula2Plus,
}

/// One entry of the Procedure Descriptor List (Section 3.1).
#[derive(Clone, Debug)]
pub struct ProcedureDescriptor {
    /// Index of the procedure within the interface (the entry address in
    /// the server domain).
    pub entry: usize,
    /// Number of simultaneous calls initially permitted (= number of
    /// A-stacks to allocate pairwise).
    pub simultaneous_calls: u32,
    /// Size of each A-stack.
    pub astack_size: usize,
    /// Declared `[idempotent = 1]` in the interface: clients may safely
    /// retry a failed call to this procedure.
    pub idempotent: bool,
}

/// A compiled procedure: its frame layout, stub language and procedure
/// descriptor.
#[derive(Clone, Debug)]
pub struct CompiledProc {
    /// The declaration this was compiled from (its name included).
    pub def: ProcDef,
    /// A-stack frame layout.
    pub layout: FrameLayout,
    /// Stub language chosen at compile time.
    pub lang: StubLang,
    /// Procedure descriptor for the PDL (its `entry` is the procedure
    /// identifier).
    pub pd: ProcedureDescriptor,
}

impl CompiledProc {
    /// The out-of-band slots one direction moves, with their declared
    /// types: the in-direction parameters' (`results` false), or the
    /// return value's and the out-direction parameters'.
    pub fn oob_slots(&self, results: bool) -> impl Iterator<Item = (&Slot, &Ty)> {
        let params = self
            .layout
            .params
            .iter()
            .zip(self.def.params.iter().map(|p| &p.ty));
        let ret = self.layout.ret.iter().zip(&self.def.ret);
        params.chain(ret).filter(move |(s, _)| {
            s.kind == SlotKind::OutOfBand
                && if results {
                    s.dir.is_out()
                } else {
                    s.dir.is_in()
                }
        })
    }
}

/// A compiled interface: everything binding and calling needs.
#[derive(Clone, Debug)]
pub struct CompiledInterface {
    /// Interface name.
    pub name: String,
    /// Compiled procedures, index-aligned with the definition.
    pub procs: Vec<CompiledProc>,
}

impl CompiledInterface {
    /// The Procedure Descriptor List the clerk hands the kernel at bind
    /// time.
    pub fn pdl(&self) -> Vec<ProcedureDescriptor> {
        self.procs.iter().map(|p| p.pd.clone()).collect()
    }

    /// Finds a compiled procedure by name: the one procedure-name lookup
    /// of the binding and call paths.
    pub fn proc_by_name(&self, name: &str) -> Option<&CompiledProc> {
        self.procs.iter().find(|p| p.def.name == name)
    }
}

fn compile_proc(index: usize, def: &ProcDef) -> CompiledProc {
    let layout = layout(def);
    let lang = if def.has_complex() {
        StubLang::Modula2Plus
    } else {
        StubLang::Assembly
    };
    let pd = ProcedureDescriptor {
        entry: index,
        simultaneous_calls: def.astack_count.unwrap_or(DEFAULT_ASTACK_COUNT),
        astack_size: layout.astack_size,
        idempotent: def.idempotent,
    };
    CompiledProc {
        def: def.clone(),
        layout,
        lang,
        pd,
    }
}

/// Compiles an interface definition into frame layouts, stub languages and
/// procedure descriptors.
pub fn compile(def: &InterfaceDef) -> CompiledInterface {
    CompiledInterface {
        name: def.name.clone(),
        procs: def
            .procs
            .iter()
            .enumerate()
            .map(|(i, p)| compile_proc(i, p))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse;

    fn compiled(src: &str) -> CompiledInterface {
        compile(&parse(src).unwrap())
    }

    #[test]
    fn pdl_carries_defaults_and_overrides() {
        let c = compiled("interface B { procedure P(); [astacks = 9] procedure Q(a: int32); }");
        let pdl = c.pdl();
        assert_eq!(pdl[0].simultaneous_calls, DEFAULT_ASTACK_COUNT);
        assert_eq!(pdl[1].simultaneous_calls, 9);
        assert_eq!(pdl[1].astack_size, 4);
        assert_eq!(c.proc_by_name("Q").unwrap().pd.entry, 1);
    }

    /// The A-stack sizing of the paper's four benchmark procedures: exact
    /// fixed sizes, all on the assembly path.
    #[test]
    fn bench_interface_astacks_are_exact() {
        let iface = compiled(
            r#"interface Bench {
                procedure Null();
                procedure Add(a: int32, b: int32) -> int32;
                procedure BigIn(data: in bytes[200] noninterpreted);
                procedure BigInOut(data: inout bytes[200] noninterpreted);
            }"#,
        );
        let sizes: Vec<usize> = iface.procs.iter().map(|p| p.pd.astack_size).collect();
        // BigInOut's single inout slot serves both directions.
        assert_eq!(sizes, vec![4, 12, 200, 200]);
        assert!(iface.procs.iter().all(|p| p.lang == StubLang::Assembly));
    }
}
