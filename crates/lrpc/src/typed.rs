//! A typed call-builder over [`crate::Binding`].
//!
//! The raw binding API takes `&[Value]` and returns `Option<Value>`; this
//! module adds an ergonomic, *statically readable* layer that checks each
//! argument against the interface's declared types as it is supplied — the
//! same conformance the generated stubs enforce, surfaced at the API
//! boundary where an application programmer can see it.
//!
//! # Examples
//!
//! ```
//! use firefly::cpu::Machine;
//! use idl::wire::Value;
//! use kernel::kernel::Kernel;
//! use lrpc::{Handler, LrpcRuntime, Reply, ServerCtx};
//!
//! let rt = LrpcRuntime::new(Kernel::new(Machine::cvax_firefly()));
//! let server = rt.kernel().create_domain("math");
//! rt.export(
//!     &server,
//!     "interface Math { procedure Add(a: int32, b: int32) -> int32; }",
//!     vec![Box::new(|_: &ServerCtx, args: &[Value]| {
//!         let (Value::Int32(a), Value::Int32(b)) = (&args[0], &args[1]) else { unreachable!() };
//!         Ok(Reply::value(Value::Int32(a + b)))
//!     }) as Handler],
//! )
//! .unwrap();
//! let client = rt.kernel().create_domain("app");
//! let thread = rt.kernel().spawn_thread(&client);
//! let binding = rt.import(&client, "Math").unwrap();
//!
//! let sum: i32 = binding
//!     .invoke("Add")
//!     .unwrap()
//!     .arg(2i32)
//!     .arg(3i32)
//!     .call(0, &thread)
//!     .unwrap()
//!     .ret_i32()
//!     .unwrap();
//! assert_eq!(sum, 5);
//! ```

use std::sync::Arc;

use idl::types::Ty;
use idl::wire::Value;
use kernel::thread::Thread;

use crate::binding::Binding;
use crate::call::CallOutcome;
use crate::error::CallError;

/// Conversion of Rust values into IDL [`Value`]s.
pub trait IntoValue {
    /// The IDL value.
    fn into_value(self) -> Value;
    /// True if this value conforms to the declared type.
    fn conforms(value: &Value, ty: &Ty) -> bool;
}

impl IntoValue for i32 {
    fn into_value(self) -> Value {
        Value::Int32(self)
    }

    fn conforms(value: &Value, ty: &Ty) -> bool {
        matches!((value, ty), (Value::Int32(_), Ty::Int32))
    }
}

impl IntoValue for i16 {
    fn into_value(self) -> Value {
        Value::Int16(self)
    }

    fn conforms(value: &Value, ty: &Ty) -> bool {
        matches!((value, ty), (Value::Int16(_), Ty::Int16))
    }
}

impl IntoValue for bool {
    fn into_value(self) -> Value {
        Value::Bool(self)
    }

    fn conforms(value: &Value, ty: &Ty) -> bool {
        matches!((value, ty), (Value::Bool(_), Ty::Bool))
    }
}

impl IntoValue for u8 {
    fn into_value(self) -> Value {
        Value::Byte(self)
    }

    fn conforms(value: &Value, ty: &Ty) -> bool {
        matches!((value, ty), (Value::Byte(_), Ty::Byte))
    }
}

impl IntoValue for Vec<u8> {
    fn into_value(self) -> Value {
        Value::Var(self)
    }

    fn conforms(value: &Value, ty: &Ty) -> bool {
        match (value, ty) {
            (Value::Var(v), Ty::VarBytes(max)) => v.len() <= *max,
            _ => false,
        }
    }
}

impl IntoValue for Value {
    fn into_value(self) -> Value {
        self
    }

    fn conforms(_: &Value, _: &Ty) -> bool {
        // Raw values defer to stub-time checking.
        true
    }
}

/// A call in preparation: procedure resolved, arguments accumulating.
pub struct TypedCall<'a> {
    binding: &'a Binding,
    proc_index: usize,
    args: Vec<Value>,
    error: Option<CallError>,
}

impl<'a> TypedCall<'a> {
    pub(crate) fn new(binding: &'a Binding, proc_index: usize) -> TypedCall<'a> {
        TypedCall {
            binding,
            proc_index,
            args: Vec::new(),
            error: None,
        }
    }

    fn declared_ty(&self) -> Option<&Ty> {
        let proc = self.binding.interface().procs.get(self.proc_index)?;
        proc.def.params.get(self.args.len()).map(|p| &p.ty)
    }

    /// Supplies the next argument, checking it against the declared
    /// parameter type. Type errors are deferred to [`TypedCall::call`] so
    /// the builder chains cleanly.
    pub fn arg<T: IntoValue>(mut self, v: T) -> TypedCall<'a> {
        if self.error.is_some() {
            return self;
        }
        let value = v.into_value();
        match self.declared_ty() {
            Some(ty) if T::conforms(&value, ty) => self.args.push(value),
            Some(ty) => {
                self.error = Some(CallError::ServerFault(format!(
                    "argument {} does not conform to declared type {ty}",
                    self.args.len()
                )));
            }
            None => {
                self.error = Some(CallError::ServerFault(format!(
                    "too many arguments (procedure declares {})",
                    self.binding.interface().procs[self.proc_index]
                        .def
                        .params
                        .len()
                )));
            }
        }
        self
    }

    /// Supplies a placeholder for an `out` parameter.
    pub fn out(mut self) -> TypedCall<'a> {
        if self.error.is_some() {
            return self;
        }
        if let Some(ty) = self.declared_ty() {
            self.args.push(Value::zero_of(ty));
        } else {
            self.error = Some(CallError::ServerFault("too many arguments".into()));
        }
        self
    }

    /// True if every stub half of this procedure was specialized into a
    /// compiled copy plan at import time — i.e. the call will execute
    /// fused bulk moves with no per-call heap allocation rather than the
    /// op-by-op stub interpreter. Useful when auditing a hot path.
    pub fn uses_compiled_stubs(&self) -> bool {
        self.binding
            .stub_plans()
            .procs
            .get(self.proc_index)
            .is_some_and(|p| p.fully_compiled())
    }

    /// Makes the LRPC.
    pub fn call(self, cpu_id: usize, thread: &Arc<Thread>) -> Result<TypedOutcome, CallError> {
        if let Some(e) = self.error {
            return Err(e);
        }
        let out = self
            .binding
            .call_indexed(cpu_id, thread, self.proc_index, &self.args)?;
        Ok(TypedOutcome { out })
    }
}

/// A completed typed call.
#[derive(Debug)]
pub struct TypedOutcome {
    /// The raw outcome.
    pub out: CallOutcome,
}

impl TypedOutcome {
    /// The `int32` return value.
    pub fn ret_i32(&self) -> Result<i32, CallError> {
        match self.out.ret {
            Some(Value::Int32(v)) => Ok(v),
            ref other => Err(CallError::ServerFault(format!(
                "expected int32 return, got {other:?}"
            ))),
        }
    }

    /// The `bool` return value.
    pub fn ret_bool(&self) -> Result<bool, CallError> {
        match self.out.ret {
            Some(Value::Bool(v)) => Ok(v),
            ref other => Err(CallError::ServerFault(format!(
                "expected bool return, got {other:?}"
            ))),
        }
    }

    /// The bytes of out-parameter `index`.
    pub fn out_bytes(&self, index: usize) -> Result<&[u8], CallError> {
        self.out
            .outs
            .iter()
            .find(|(i, _)| *i == index)
            .and_then(|(_, v)| match v {
                Value::Bytes(b) | Value::Var(b) => Some(b.as_slice()),
                _ => None,
            })
            .ok_or_else(|| CallError::ServerFault(format!("no byte out-parameter {index}")))
    }

    /// Simulated time the call took.
    pub fn elapsed(&self) -> firefly::time::Nanos {
        self.out.elapsed
    }
}

impl Binding {
    /// Starts a typed call to the named procedure.
    pub fn invoke(&self, proc: &str) -> Result<TypedCall<'_>, CallError> {
        let index = self.proc_index(proc)?;
        Ok(TypedCall::new(self, index))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Handler, LrpcRuntime, Reply, ServerCtx};
    use firefly::cpu::Machine;
    use kernel::kernel::Kernel;

    fn env() -> (Arc<LrpcRuntime>, Arc<Thread>, Binding) {
        let rt = LrpcRuntime::new(Kernel::new(Machine::cvax_firefly()));
        let server = rt.kernel().create_domain("svc");
        rt.export(
            &server,
            r#"interface Svc {
                procedure Add(a: int32, b: int32) -> int32;
                procedure Read(h: int32, buf: out bytes[8]) -> int32;
                procedure Store(data: in var bytes[16] noninterpreted) -> int32;
                procedure Walk(t: in tree);
            }"#,
            vec![
                Box::new(|_: &ServerCtx, args: &[Value]| {
                    let (Value::Int32(a), Value::Int32(b)) = (&args[0], &args[1]) else {
                        unreachable!()
                    };
                    Ok(Reply::value(Value::Int32(a + b)))
                }) as Handler,
                Box::new(|_: &ServerCtx, _: &[Value]| {
                    Ok(Reply::value(Value::Int32(8)).with_out(1, Value::Bytes(vec![9; 8])))
                }) as Handler,
                Box::new(|_: &ServerCtx, args: &[Value]| {
                    let Value::Var(v) = &args[0] else {
                        unreachable!()
                    };
                    Ok(Reply::value(Value::Int32(v.len() as i32)))
                }) as Handler,
                Box::new(|_: &ServerCtx, _: &[Value]| Ok(Reply::none())) as Handler,
            ],
        )
        .unwrap();
        let client = rt.kernel().create_domain("app");
        let thread = rt.kernel().spawn_thread(&client);
        let binding = rt.import(&client, "Svc").unwrap();
        (rt, thread, binding)
    }

    #[test]
    fn typed_add() {
        let (_rt, thread, binding) = env();
        let sum = binding
            .invoke("Add")
            .unwrap()
            .arg(40i32)
            .arg(2i32)
            .call(0, &thread)
            .unwrap();
        assert_eq!(sum.ret_i32().unwrap(), 42);
        assert!(sum.elapsed() > firefly::Nanos::ZERO);
    }

    #[test]
    fn fixed_and_variable_procs_report_compiled_stubs_and_complex_ones_do_not() {
        let (_rt, _thread, binding) = env();
        assert!(binding.invoke("Add").unwrap().uses_compiled_stubs());
        assert!(binding.invoke("Read").unwrap().uses_compiled_stubs());
        // Inline variable-size parameters lower to length-prefixed plan
        // steps now, so `Store` compiles too.
        assert!(binding.invoke("Store").unwrap().uses_compiled_stubs());
        // Complex (pointer-rich) types still force the interpreter.
        assert!(!binding.invoke("Walk").unwrap().uses_compiled_stubs());
    }

    #[test]
    fn out_parameters_via_placeholder() {
        let (_rt, thread, binding) = env();
        let out = binding
            .invoke("Read")
            .unwrap()
            .arg(1i32)
            .out()
            .call(0, &thread)
            .unwrap();
        assert_eq!(out.ret_i32().unwrap(), 8);
        assert_eq!(out.out_bytes(1).unwrap(), &[9; 8]);
    }

    #[test]
    fn var_bytes_length_is_checked_at_the_builder() {
        let (_rt, thread, binding) = env();
        let ok = binding
            .invoke("Store")
            .unwrap()
            .arg(vec![1u8; 16])
            .call(0, &thread)
            .unwrap();
        assert_eq!(ok.ret_i32().unwrap(), 16);
        let err = binding
            .invoke("Store")
            .unwrap()
            .arg(vec![1u8; 17])
            .call(0, &thread)
            .unwrap_err();
        assert!(matches!(err, CallError::ServerFault(_)), "got {err}");
    }

    #[test]
    fn type_mismatches_are_reported_before_the_call() {
        let (_rt, thread, binding) = env();
        let err = binding
            .invoke("Add")
            .unwrap()
            .arg(true) // bool where int32 is declared
            .arg(2i32)
            .call(0, &thread)
            .unwrap_err();
        assert!(matches!(err, CallError::ServerFault(_)));
        // Too many arguments.
        let err = binding
            .invoke("Add")
            .unwrap()
            .arg(1i32)
            .arg(2i32)
            .arg(3i32)
            .call(0, &thread)
            .unwrap_err();
        assert!(matches!(err, CallError::ServerFault(_)));
    }

    #[test]
    fn unknown_procedure_fails_at_invoke() {
        let (_rt, _thread, binding) = env();
        assert!(binding.invoke("Nope").is_err());
    }

    #[test]
    fn wrong_return_extractor_errors() {
        let (_rt, thread, binding) = env();
        let out = binding
            .invoke("Add")
            .unwrap()
            .arg(1i32)
            .arg(1i32)
            .call(0, &thread)
            .unwrap();
        assert!(out.ret_bool().is_err());
        assert!(out.out_bytes(0).is_err());
    }
}
