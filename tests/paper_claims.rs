//! The paper's headline claims, verified in one place.
//!
//! Abstract: "LRPC achieves a factor of three performance improvement over
//! more traditional approaches ... reducing the cost of same-machine
//! communication to nearly the lower bound imposed by conventional
//! hardware. ... The Firefly virtual memory and trap handling machinery
//! limit the performance of a safe cross-domain procedure call to roughly
//! 109 microseconds; LRPC adds only 48 microseconds of overhead."

use firefly::cost::CostModel;
use firefly::cpu::Machine;
use firefly::time::Nanos;
use idl::wire::Value;
use kernel::kernel::Kernel;
use lrpc::{Handler, LrpcRuntime, Reply, ServerCtx, TestRuntime};
use msgrpc::{MsgRpcCost, MsgRpcSystem};

fn lrpc_null_latency() -> Nanos {
    let rt = TestRuntime::new().domain_caching(false).build();
    let server = rt.kernel().create_domain("s");
    rt.export(
        &server,
        "interface N { procedure Null(); }",
        vec![Box::new(|_: &ServerCtx, _: &[Value]| Ok(Reply::none())) as Handler],
    )
    .unwrap();
    let client = rt.kernel().create_domain("c");
    let thread = rt.kernel().spawn_thread(&client);
    let binding = rt.import(&client, "N").unwrap();
    binding.call(0, &thread, "Null", &[]).unwrap();
    binding.call(0, &thread, "Null", &[]).unwrap().elapsed
}

fn src_null_latency() -> Nanos {
    let cost = MsgRpcCost::src_rpc_taos();
    let kernel = Kernel::new(Machine::new(1, CostModel::with_hw(cost.hw)));
    let system = MsgRpcSystem::new(kernel, cost);
    let sd = system.kernel().create_domain("s");
    let server = system
        .export(
            &sd,
            "interface N { procedure Null(); }",
            vec![Box::new(|_: &[Value]| Ok(Reply::none())) as msgrpc::MsgHandler],
            1,
        )
        .unwrap();
    let client = system.kernel().create_domain("c");
    let thread = system.kernel().spawn_thread(&client);
    system
        .call(&client, &thread, &server, 0, "Null", &[])
        .unwrap();
    system
        .call(&client, &thread, &server, 0, "Null", &[])
        .unwrap()
        .elapsed
}

#[test]
fn factor_of_three_over_src_rpc() {
    let lrpc = lrpc_null_latency();
    let src = src_null_latency();
    let factor = src.as_micros_f64() / lrpc.as_micros_f64();
    assert!(
        (2.8..=3.2).contains(&factor),
        "LRPC {lrpc} vs SRC RPC {src}: factor {factor:.2} (paper: ~3x)"
    );
}

#[test]
fn overhead_over_the_hardware_lower_bound_is_48_microseconds() {
    let lrpc = lrpc_null_latency();
    let lower_bound = CostModel::cvax_firefly().hw.theoretical_minimum();
    assert_eq!(lower_bound, Nanos::from_micros(109));
    assert_eq!(lrpc - lower_bound, Nanos::from_micros(48));
}

#[test]
fn lrpc_beats_every_table_2_system() {
    let lrpc = lrpc_null_latency();
    for cost in MsgRpcCost::table_2_systems() {
        // Compare overheads (the machines differ): LRPC's overhead is far
        // below every conventional system's.
        let lrpc_overhead = lrpc - CostModel::cvax_firefly().hw.theoretical_minimum();
        assert!(
            cost.overhead() > lrpc_overhead * 4,
            "{}: overhead {} vs LRPC {}",
            cost.name,
            cost.overhead(),
            lrpc_overhead
        );
    }
}

#[test]
fn safety_is_retained_despite_the_speed() {
    // The performance comes without giving up the RPC safety properties:
    // a third party can neither read the A-stack channel nor forge a
    // binding.
    let kernel = Kernel::new(Machine::cvax_uniprocessor());
    let rt = LrpcRuntime::new(kernel);
    let server = rt.kernel().create_domain("bank");
    rt.export(
        &server,
        "interface Bank { procedure Deposit(amount: int32) -> int32; }",
        vec![
            Box::new(|_: &ServerCtx, args: &[Value]| Ok(Reply::value(args[0].clone()))) as Handler,
        ],
    )
    .unwrap();
    let client = rt.kernel().create_domain("teller");
    let thread = rt.kernel().spawn_thread(&client);
    let binding = rt.import(&client, "Bank").unwrap();

    // Third-party domain: no mapping for the A-stack region.
    let snoop = rt.kernel().create_domain("snoop");
    let region = binding.state().astacks.primary_region();
    assert!(snoop.ctx().check(region.id(), false, false).is_err());

    // Forged binding object: detected.
    assert!(binding
        .forged()
        .call(0, &thread, "Deposit", &[Value::Int32(1)])
        .is_err());

    // The legitimate path still works.
    let out = binding
        .call(0, &thread, "Deposit", &[Value::Int32(100)])
        .unwrap();
    assert_eq!(out.ret, Some(Value::Int32(100)));
}

#[test]
fn uncommon_cases_do_not_penalize_the_common_case() {
    // Section 5: handling the uncommon cases must not slow the common
    // path. The Null call costs exactly the same in a runtime that has
    // remote transports configured and other domains terminating around
    // it.
    let rt = TestRuntime::new().cpus(2).domain_caching(false).build();
    rt.set_remote_transport(msgrpc::RemoteMachine::new("elsewhere"));

    let server = rt.kernel().create_domain("s");
    rt.export(
        &server,
        "interface N { procedure Null(); }",
        vec![Box::new(|_: &ServerCtx, _: &[Value]| Ok(Reply::none())) as Handler],
    )
    .unwrap();
    let client = rt.kernel().create_domain("c");
    let thread = rt.kernel().spawn_thread(&client);
    let binding = rt.import(&client, "N").unwrap();
    binding.call(0, &thread, "Null", &[]).unwrap();

    // Other domains come and go.
    for i in 0..5 {
        let d = rt.kernel().create_domain(format!("bystander-{i}"));
        rt.terminate_domain(&d);
    }

    let out = binding.call(0, &thread, "Null", &[]).unwrap();
    assert_eq!(out.elapsed, Nanos::from_micros(157));
}
