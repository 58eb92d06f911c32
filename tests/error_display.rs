//! User-facing error messages: every error a caller can see renders with
//! the information needed to act on it.

use firefly::cost::CostModel;
use firefly::cpu::Machine;
use firefly::error::MemFault;
use firefly::mem::RegionId;
use firefly::vm::ContextId;
use idl::stubvm::StubError;
use idl::wire::{Value, WireError};
use kernel::kernel::Kernel;
use kernel::objects::HandleError;
use lrpc::{CallError, Handler, Reply, ServerCtx, TestRuntime};
use msgrpc::{MsgHandler, MsgRpcCost, MsgRpcSystem};

#[test]
fn mem_faults_name_the_region_and_context() {
    let cases = [
        (
            MemFault::NotMapped {
                ctx: ContextId(4),
                region: RegionId(9),
            },
            vec!["region#9", "ctx#4", "not mapped"],
        ),
        (
            MemFault::ProtectionViolation {
                ctx: ContextId(4),
                region: RegionId(9),
                write: true,
            },
            vec!["write", "denied"],
        ),
        (
            MemFault::ProtectionViolation {
                ctx: ContextId(4),
                region: RegionId(9),
                write: false,
            },
            vec!["read", "denied"],
        ),
        (
            MemFault::OutOfRange {
                region: RegionId(2),
                offset: 10,
                len: 20,
            },
            vec!["10", "20", "out of range"],
        ),
        (
            MemFault::NoSuchRegion {
                region: RegionId(5),
            },
            vec!["region#5", "does not exist"],
        ),
    ];
    for (fault, needles) in cases {
        let msg = fault.to_string();
        for n in needles {
            assert!(msg.contains(n), "{msg:?} should contain {n:?}");
        }
    }
}

#[test]
fn wire_errors_describe_the_conformance_failure() {
    assert!(WireError::Conformance { found: -7 }
        .to_string()
        .contains("-7"));
    let too_long = WireError::TooLong {
        len: 2000,
        max: 1500,
    }
    .to_string();
    assert!(too_long.contains("2000") && too_long.contains("1500"));
    assert!(WireError::Truncated.to_string().contains("truncated"));
    assert!(WireError::BadTag(9).to_string().contains('9'));
}

#[test]
fn handle_errors_distinguish_forgery_from_staleness() {
    assert!(HandleError::Forged.to_string().contains("forged"));
    assert!(HandleError::Dangling.to_string().contains("no live"));
}

#[test]
fn call_errors_carry_the_paper_exception_names() {
    let cases: Vec<(CallError, &str)> = vec![
        (CallError::BindingRevoked, "revoked"),
        (CallError::CallFailed, "call-failed"),
        (CallError::CallAborted, "call-aborted"),
        (CallError::NoAStacks, "A-stack"),
        (CallError::AStackBusy, "in use"),
        (CallError::BadAStack, "validation"),
        (CallError::BadProcedure { index: 7 }, "7"),
        (CallError::DomainDead, "not active"),
        (CallError::ImportTimeout { name: "FS".into() }, "FS"),
        (CallError::ServerFault("boom".into()), "boom"),
        (CallError::NoRemoteTransport, "remote"),
        (CallError::InvalidBinding(HandleError::Forged), "binding"),
        (
            CallError::Mem(MemFault::NoSuchRegion {
                region: RegionId(1),
            }),
            "memory fault",
        ),
        (
            CallError::Stub(StubError::ArgCount {
                expected: 2,
                got: 1,
            }),
            "expected 2 arguments",
        ),
    ];
    for (err, needle) in cases {
        let msg = err.to_string();
        assert!(msg.contains(needle), "{msg:?} should contain {needle:?}");
    }
}

#[test]
fn unknown_procedures_are_reported_by_name() {
    const IDL: &str = "interface Svc { procedure Null(); }";
    let expected = "interface `Svc` has no procedure `Nope`";

    let rt = TestRuntime::new().build();
    let server = rt.kernel().create_domain("s");
    rt.export(
        &server,
        IDL,
        vec![Box::new(|_: &ServerCtx, _: &[Value]| Ok(Reply::none())) as Handler],
    )
    .unwrap();
    let client = rt.kernel().create_domain("c");
    let thread = rt.kernel().spawn_thread(&client);
    let binding = rt.import(&client, "Svc").unwrap();
    let err = binding.call(0, &thread, "Nope", &[]).unwrap_err();
    assert_eq!(err.to_string(), expected, "LRPC");

    let cost = MsgRpcCost::src_rpc_taos();
    let msg = MsgRpcSystem::new(
        Kernel::new(Machine::new(1, CostModel::with_hw(cost.hw))),
        cost,
    );
    let sd = msg.kernel().create_domain("s");
    let msg_server = msg
        .export(
            &sd,
            IDL,
            vec![Box::new(|_: &[Value]| Ok(Reply::none())) as MsgHandler],
            1,
        )
        .unwrap();
    let client = msg.kernel().create_domain("c");
    let thread = msg.kernel().spawn_thread(&client);
    let err = msg
        .call(&client, &thread, &msg_server, 0, "Nope", &[])
        .unwrap_err();
    assert_eq!(err.to_string(), expected, "message RPC");
}

#[test]
fn errors_are_std_error_sources() {
    fn takes_error<E: std::error::Error>(_: E) {}
    takes_error(CallError::CallFailed);
    takes_error(MemFault::NoSuchRegion {
        region: RegionId(1),
    });
    takes_error(WireError::Truncated);
    takes_error(HandleError::Forged);
    takes_error(idl::ParseError {
        line: 1,
        col: 2,
        msg: "x".into(),
    });
}
