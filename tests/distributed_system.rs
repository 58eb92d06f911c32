//! Multi-machine integration: a fleet of simulated Fireflies on one
//! Ethernet, exercising local LRPC and cross-machine transparency
//! together.

use std::sync::Arc;

use idl::wire::Value;
use lrpc::{Binding, Handler, LrpcRuntime, Reply, ServerCtx, TestRuntime};
use msgrpc::Internet;

fn boot() -> Arc<LrpcRuntime> {
    TestRuntime::new().cpus(2).domain_caching(false).build()
}

fn export_len(rt: &Arc<LrpcRuntime>, domain: &str, idl_src: &str) {
    let d = rt.kernel().create_domain(domain);
    rt.export(
        &d,
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

#[test]
fn four_machines_full_mesh() {
    // Four machines; each exports one service and calls all the others.
    let machines: Vec<Arc<LrpcRuntime>> = (0..4).map(|_| boot()).collect();
    let net = Internet::new();
    for (i, rt) in machines.iter().enumerate() {
        net.attach(format!("host{i}"), Arc::clone(rt));
        export_len(
            rt,
            &format!("svc{i}"),
            &format!(
                "interface Svc{i} {{ procedure Len(data: in var bytes[512] noninterpreted) -> int32; }}"
            ),
        );
        rt.set_remote_transport(Arc::clone(&net) as Arc<dyn lrpc::RemoteTransport>);
    }

    for (i, rt) in machines.iter().enumerate() {
        let app = rt.kernel().create_domain("app");
        let thread = rt.kernel().spawn_thread(&app);
        for (j, _) in machines.iter().enumerate() {
            let name = format!("Svc{j}");
            let binding: Binding = if i == j {
                rt.import(&app, &name).expect("local import")
            } else {
                rt.import_remote(&app, &name).expect("remote import")
            };
            let out = binding
                .call_indexed(0, &thread, 0, &[Value::Var(vec![7u8; 100 + j])])
                .expect("mesh call");
            assert_eq!(out.ret, Some(Value::Int32(100 + j as i32)));
            if i == j {
                assert!(
                    out.elapsed < firefly::Nanos::from_micros(400),
                    "local: {}",
                    out.elapsed
                );
            } else {
                assert!(
                    out.elapsed > firefly::Nanos::from_micros(2_000),
                    "remote: {}",
                    out.elapsed
                );
            }
        }
    }
}

#[test]
fn trace_replay_across_the_network_matches_the_activity_model() {
    let workstation = boot();
    let server_host = boot();
    let net = Internet::new();
    net.attach("ws", Arc::clone(&workstation));
    net.attach("srv", Arc::clone(&server_host));

    export_len(
        &workstation,
        "local-svc",
        "interface Local { procedure Len(data: in var bytes[1448] noninterpreted) -> int32; }",
    );
    export_len(
        &server_host,
        "remote-svc",
        "interface Remote { procedure Len(data: in var bytes[1448] noninterpreted) -> int32; }",
    );
    workstation.set_remote_transport(Arc::clone(&net) as Arc<dyn lrpc::RemoteTransport>);

    let app = workstation.kernel().create_domain("app");
    let thread = workstation.kernel().spawn_thread(&app);
    let local = workstation.import(&app, "Local").unwrap();
    let remote = workstation.import_remote(&app, "Remote").unwrap();

    let trace = workload::TraceModel::taos().generate(3, 500);
    for event in &trace.events {
        let args = [Value::Var(vec![0u8; (event.bytes as usize).min(1448)])];
        let binding = if event.remote { &remote } else { &local };
        let out = binding
            .call_indexed(0, &thread, 0, &args)
            .expect("trace call");
        assert_eq!(
            out.ret,
            Some(Value::Int32(args[0].clone().into_len() as i32))
        );
    }

    // The binding stats reflect the trace's mix.
    let local_calls = local.state().stats.calls();
    let remote_calls = remote.state().stats.remote_calls();
    assert_eq!(local_calls + remote_calls, 500);
    let remote_share = remote_calls as f64 / 500.0;
    assert!(
        (0.02..=0.09).contains(&remote_share),
        "remote share {remote_share}"
    );
    assert_eq!(local.state().stats.failures(), 0);
}

trait IntoLen {
    fn into_len(self) -> usize;
}

impl IntoLen for Value {
    fn into_len(self) -> usize {
        match self {
            Value::Var(v) | Value::Bytes(v) => v.len(),
            _ => 0,
        }
    }
}

#[test]
fn machine_clocks_advance_independently() {
    // Work on machine A must not move machine B's clocks (other than via
    // remote calls A makes to B).
    let a = boot();
    let b = boot();
    export_len(
        &a,
        "svc",
        "interface OnlyA { procedure Len(data: in var bytes[64] noninterpreted) -> int32; }",
    );
    let app = a.kernel().create_domain("app");
    let thread = a.kernel().spawn_thread(&app);
    let binding = a.rt_import(&app);
    for _ in 0..10 {
        binding
            .call_indexed(0, &thread, 0, &[Value::Var(vec![1; 8])])
            .unwrap();
    }
    assert!(a.kernel().machine().cpu(0).now() > firefly::Nanos::from_micros(1_000));
    assert_eq!(b.kernel().machine().cpu(0).now(), firefly::Nanos::ZERO);
}

trait RtImport {
    fn rt_import(&self, app: &Arc<kernel::Domain>) -> Binding;
}

impl RtImport for Arc<LrpcRuntime> {
    fn rt_import(&self, app: &Arc<kernel::Domain>) -> Binding {
        self.import(app, "OnlyA").expect("import")
    }
}
