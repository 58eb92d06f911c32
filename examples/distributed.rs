//! A small distributed system of simulated Fireflies.
//!
//! ```text
//! cargo run --example distributed
//! ```
//!
//! Three machines on a simulated Ethernet, each running its own kernel and
//! LRPC runtime (the Taos structure: network protocols live in a domain of
//! their own). Services are spread across the machines; the workstation
//! calls its local services over LRPC and the remote ones transparently
//! through the network — which composes the wire cost with an *actual*
//! LRPC on the far machine.
//!
//! The run then replays a Taos-like call mix (Table 1's ~5 % remote rate)
//! and reports where the communication time went — the paper's argument
//! for optimizing the local case, measured.

use std::sync::Arc;

use firefly::time::Nanos;
use idl::wire::Value;
use lrpc::{Handler, LrpcRuntime, Reply, ServerCtx, TestRuntime};
use msgrpc::Internet;

fn boot() -> Arc<LrpcRuntime> {
    TestRuntime::new().domain_caching(false).build()
}

fn export_echo(rt: &Arc<LrpcRuntime>, domain_name: &str, idl_src: &str) {
    let domain = rt.kernel().create_domain(domain_name);
    rt.export(
        &domain,
        idl_src,
        vec![Box::new(|_: &ServerCtx, args: &[Value]| {
            let Value::Var(v) = &args[0] else {
                unreachable!()
            };
            Ok(Reply::value(Value::Int32(v.len() as i32)))
        }) as Handler],
    )
    .expect("export");
}

fn main() {
    // Three machines: the user's workstation plus two servers.
    let workstation = boot();
    let file_host = boot();
    let db_host = boot();

    let net = Internet::new();
    net.attach("workstation", Arc::clone(&workstation));
    net.attach("fileserver", Arc::clone(&file_host));
    net.attach("dbserver", Arc::clone(&db_host));
    println!("{} machines on the simulated Ethernet", net.host_count());

    // Local services on the workstation; remote ones elsewhere.
    export_echo(
        &workstation,
        "window-system",
        "interface Windows { procedure Draw(data: in var bytes[1448] noninterpreted) -> int32; }",
    );
    export_echo(
        &file_host,
        "remote-fs",
        "interface RemoteFiles { procedure Write(data: in var bytes[1448] noninterpreted) -> int32; }",
    );
    export_echo(
        &db_host,
        "database",
        "interface Database { procedure Query(data: in var bytes[1448] noninterpreted) -> int32; }",
    );

    workstation.set_remote_transport(Arc::clone(&net) as Arc<dyn lrpc::RemoteTransport>);
    let app = workstation.kernel().create_domain("editor");
    let thread = workstation.kernel().spawn_thread(&app);

    let local = workstation.import(&app, "Windows").expect("local import");
    let files = workstation
        .import_remote(&app, "RemoteFiles")
        .expect("remote import");
    let db = workstation
        .import_remote(&app, "Database")
        .expect("remote import");

    // One of each, for flavour.
    let payload = vec![0x42u8; 256];
    for (name, binding) in [
        ("Windows (local)", &local),
        ("RemoteFiles", &files),
        ("Database", &db),
    ] {
        let out = binding
            .call_indexed(0, &thread, 0, &[Value::Var(payload.clone())])
            .expect("call");
        println!("{name:<22} -> {:?} in {}", out.ret, out.elapsed);
    }

    // Replay a Taos-like mix: ~95% of calls local, ~5% remote.
    let trace = workload::TraceModel::taos().generate(7, 1_000);
    let mut local_time = Nanos::ZERO;
    let mut remote_time = Nanos::ZERO;
    let mut remote_calls = 0u32;
    for event in &trace.events {
        let args = [Value::Var(vec![0u8; (event.bytes as usize).min(1448)])];
        if event.remote {
            // Alternate between the two remote services.
            let target = if remote_calls.is_multiple_of(2) {
                &files
            } else {
                &db
            };
            remote_time += target
                .call_indexed(0, &thread, 0, &args)
                .expect("remote")
                .elapsed;
            remote_calls += 1;
        } else {
            local_time += local
                .call_indexed(0, &thread, 0, &args)
                .expect("local")
                .elapsed;
        }
    }
    let total = local_time + remote_time;
    println!(
        "\nreplayed {} calls: {} local ({}), {} remote ({})",
        trace.len(),
        trace.len() as u32 - remote_calls,
        local_time,
        remote_calls,
        remote_time
    );
    println!(
        "remote calls are {:.1}% of calls but {:.0}% of communication time — \
         \"most communication traffic in operating systems is cross-domain\", \
         and that is the case LRPC makes fast",
        100.0 * f64::from(remote_calls) / trace.len() as f64,
        100.0 * remote_time.as_nanos() as f64 / total.as_nanos() as f64
    );
}
