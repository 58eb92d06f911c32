//! LRPC on a multiprocessor: domain caching and call throughput.
//!
//! ```text
//! cargo run --example multiprocessor
//! ```
//!
//! Demonstrates the two Section 3.4 mechanisms:
//!
//! 1. *Domain caching* — an idle processor spinning in the server's
//!    context is claimed at call time, replacing the context switch with a
//!    processor exchange (Table 4's LRPC/MP column), and the scheduler
//!    prods idle processors toward the domains with the most LRPC traffic.
//! 2. *Throughput scaling* — with per-A-stack-queue locks only, call
//!    throughput scales with processors, while SRC RPC's global lock caps
//!    it near 4 000 calls/second (Figure 2).

use firefly::cpu::Machine;
use idl::wire::Value;
use kernel::kernel::Kernel;
use kernel::prod_idle_processors;
use lrpc::{Handler, LrpcRuntime, Reply, ServerCtx};

fn main() {
    // ---- Part 1: domain caching -------------------------------------
    let kernel = Kernel::new(Machine::cvax_firefly());
    let rt = LrpcRuntime::new(kernel);
    let server = rt.kernel().create_domain("hot-server");
    rt.export(
        &server,
        "interface Hot { procedure Ping(); }",
        vec![Box::new(|_: &ServerCtx, _: &[Value]| Ok(Reply::none())) as Handler],
    )
    .expect("export");
    let client = rt.kernel().create_domain("client");
    let thread = rt.kernel().spawn_thread(&client);
    let binding = rt.import(&client, "Hot").expect("import");

    // First calls find no idle processor in the server's context; the
    // kernel counts the misses.
    let cold = binding.call(0, &thread, "Ping", &[]).expect("cold call");
    binding.call(0, &thread, "Ping", &[]).expect("second call");
    println!(
        "without a cached domain: Ping takes {} (exchange on call: {})",
        cold.elapsed, cold.exchanged_on_call
    );
    println!(
        "idle-processor misses recorded for the server: {}",
        server.idle_misses()
    );

    // CPUs 2 and 3 go idle; the scheduler prods them toward the domains
    // showing the most LRPC activity.
    let machine = rt.kernel().machine().clone();
    machine
        .cpu(2)
        .set_idle_in(Some(firefly::vm::ContextId::KERNEL));
    machine
        .cpu(3)
        .set_idle_in(Some(firefly::vm::ContextId::KERNEL));
    let assigned = prod_idle_processors(&machine, &[server.clone(), client.clone()]);
    println!(
        "scheduler parked {} idle CPU(s) in the server's context",
        assigned[0]
    );

    // Now calls exchange processors instead of switching contexts.
    let warm = binding.call(0, &thread, "Ping", &[]).expect("warm call");
    let steady = binding
        .call(warm.end_cpu, &thread, "Ping", &[])
        .expect("steady call");
    println!(
        "with a cached domain:    Ping takes {} (exchanged on call: {}, on return: {})",
        steady.elapsed, steady.exchanged_on_call, steady.exchanged_on_return
    );

    // ---- Part 2: Figure 2's throughput experiment --------------------
    println!("\ncall throughput vs processors (domain caching disabled):");
    println!(
        "{:>5} {:>14} {:>14} {:>10}",
        "CPUs", "LRPC calls/s", "optimal", "SRC RPC"
    );
    for p in bench::experiments::figure2().points {
        println!(
            "{:>5} {:>14.0} {:>14.0} {:>10.0}",
            p.cpus, p.lrpc, p.optimal, p.src
        );
    }
    println!("\nLRPC scales with processors; SRC RPC flattens behind its global lock.");
}
