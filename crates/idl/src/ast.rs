//! Interface definitions.
//!
//! "Servers execute in a private protection domain, and each exports one or
//! more interfaces, making a specific set of procedures available to other
//! domains" (Section 3). An [`InterfaceDef`] is the compile-time
//! description the stub generator consumes; Section 5.2's knobs (the
//! number of simultaneous calls/A-stacks, defaulting to five) are
//! attributes on the definition.

use crate::types::Ty;

/// Direction of a parameter.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Dir {
    /// Passed from client to server (the default).
    #[default]
    In,
    /// Returned from server to client.
    Out,
    /// Passed in and returned.
    InOut,
}

impl Dir {
    /// True if the value travels client → server.
    pub fn is_in(self) -> bool {
        matches!(self, Dir::In | Dir::InOut)
    }

    /// True if the value travels server → client.
    pub fn is_out(self) -> bool {
        matches!(self, Dir::Out | Dir::InOut)
    }
}

/// One declared parameter.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Param {
    /// Parameter name.
    pub name: String,
    /// Parameter type.
    pub ty: Ty,
    /// Direction.
    pub dir: Dir,
    /// The server does not interpret this value, so it needs no protection
    /// against the client changing it mid-call and no defensive copy
    /// (Section 3.5's `Write` example: "The array itself is not interpreted
    /// by the server, which is made no more secure by an assurance that the
    /// bytes won't change during the call").
    pub noninterpreted: bool,
    /// Passed by reference: the client stub copies the referent onto the
    /// A-stack and the server stub recreates a reference on its private
    /// E-stack ("The reference must be recreated to prevent the caller from
    /// passing in a bad address", Section 3.2).
    pub by_ref: bool,
}

impl Param {
    /// A plain by-value `in` parameter.
    pub fn value(name: impl Into<String>, ty: Ty) -> Param {
        Param {
            name: name.into(),
            ty,
            dir: Dir::In,
            noninterpreted: false,
            by_ref: false,
        }
    }
}

/// One declared procedure.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ProcDef {
    /// Procedure name.
    pub name: String,
    /// Declared parameters, in order.
    pub params: Vec<Param>,
    /// Return type, if any.
    pub ret: Option<Ty>,
    /// Override for the number of simultaneous calls (A-stacks) permitted;
    /// `None` uses the interface default of five (Section 5.2).
    pub astack_count: Option<u32>,
    /// Override for the A-stack size; `None` computes it from the types
    /// (exact for fixed-size procedures, the Ethernet default otherwise).
    pub astack_size: Option<usize>,
    /// Declared safe to retry: calling the procedure twice with the same
    /// arguments is equivalent to calling it once. Retry policies only
    /// re-issue calls to procedures carrying this attribute.
    pub idempotent: bool,
    /// The server accepts a shared view of interpreted variable-size data
    /// instead of the copy-on-guard default (Section 3.3: arguments "must
    /// be copied once, from the optimized protocol's shared buffer into
    /// the server's private one", *unless* the server is willing to read
    /// them in place and tolerate the client changing them mid-call).
    pub inplace: bool,
}

impl ProcDef {
    /// A procedure with no attributes.
    pub fn new(name: impl Into<String>, params: Vec<Param>, ret: Option<Ty>) -> ProcDef {
        ProcDef {
            name: name.into(),
            params,
            ret,
            astack_count: None,
            astack_size: None,
            idempotent: false,
            inplace: false,
        }
    }

    /// True if every parameter and the return type have compile-time-known
    /// sizes ("Two-thirds of all procedures passed only parameters of fixed
    /// size").
    pub fn all_fixed_size(&self) -> bool {
        self.params.iter().all(|p| p.ty.fixed_size().is_some())
            && self.ret.as_ref().is_none_or(|t| t.fixed_size().is_some())
    }

    /// True if any parameter or the return type is complex (forces the
    /// Modula2+ marshaling stub).
    pub fn has_complex(&self) -> bool {
        self.params.iter().any(|p| p.ty.is_complex())
            || self.ret.as_ref().is_some_and(|t| t.is_complex())
    }

    /// Total fixed bytes transferred (arguments plus results), if all types
    /// are fixed-size.
    pub fn fixed_transfer_bytes(&self) -> Option<usize> {
        let mut total = 0;
        for p in &self.params {
            let sz = p.ty.fixed_size()?;
            if p.dir == Dir::InOut {
                total += 2 * sz;
            } else {
                total += sz;
            }
        }
        if let Some(r) = &self.ret {
            total += r.fixed_size()?;
        }
        Some(total)
    }
}

/// One exported interface.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct InterfaceDef {
    /// Interface name, as registered with the name server.
    pub name: String,
    /// Declared procedures, in order; the index is the procedure identifier
    /// presented to the kernel at call time.
    pub procs: Vec<ProcDef>,
}

impl InterfaceDef {
    /// Creates an interface.
    pub fn new(name: impl Into<String>, procs: Vec<ProcDef>) -> InterfaceDef {
        InterfaceDef {
            name: name.into(),
            procs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::ComplexKind;

    #[test]
    fn dir_predicates() {
        assert!(Dir::In.is_in() && !Dir::In.is_out());
        assert!(Dir::Out.is_out() && !Dir::Out.is_in());
        assert!(Dir::InOut.is_in() && Dir::InOut.is_out());
    }

    #[test]
    fn fixed_size_detection() {
        let p = ProcDef::new(
            "Add",
            vec![Param::value("a", Ty::Int32), Param::value("b", Ty::Int32)],
            Some(Ty::Int32),
        );
        assert!(p.all_fixed_size());
        assert_eq!(p.fixed_transfer_bytes(), Some(12));

        let v = ProcDef::new("Log", vec![Param::value("msg", Ty::VarBytes(256))], None);
        assert!(!v.all_fixed_size());
        assert_eq!(v.fixed_transfer_bytes(), None);
    }

    #[test]
    fn inout_counts_both_directions() {
        let p = ProcDef::new(
            "BigInOut",
            vec![Param {
                name: "buf".into(),
                ty: Ty::ByteArray(200),
                dir: Dir::InOut,
                noninterpreted: false,
                by_ref: false,
            }],
            None,
        );
        assert_eq!(p.fixed_transfer_bytes(), Some(400));
    }

    #[test]
    fn complex_detection() {
        let p = ProcDef::new(
            "Walk",
            vec![Param::value("t", Ty::Complex(ComplexKind::Tree))],
            None,
        );
        assert!(p.has_complex());
    }
}
