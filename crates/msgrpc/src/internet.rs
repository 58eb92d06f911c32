//! A network of simulated machines.
//!
//! [`crate::net::RemoteMachine`] models the far side of a cross-machine
//! call as a bare handler table. [`Internet`] goes further: each host is a
//! *complete* simulated machine with its own kernel and LRPC runtime
//! (Taos-style: "network protocols" live in a domain of their own). An
//! incoming network RPC lands in the remote host's network-protocol
//! domain, which then makes an ordinary **local LRPC** to the server
//! domain on that machine — exactly the structure the paper describes for
//! Taos, where remote operation composes the network path with the local
//! cross-domain path.
//!
//! The caller's clock is charged for the wire time *and* for the remote
//! machine's processing time (the caller blocks for the full round trip).

use std::collections::HashMap;
use std::sync::Arc;

use firefly::cpu::Cpu;
use firefly::fault::FaultPlan;
use firefly::meter::{Meter, Phase};
use idl::stubgen::CompiledInterface;
use idl::wire::Value;
use kernel::thread::Thread;
use kernel::Domain;
use lrpc::{Binding, CallError, LrpcRuntime, RemoteReply, RemoteTransport};
use parking_lot::Mutex;

use crate::marshal;
use crate::net::{apply_packet_faults, packets_for, PACKET_PROCESSING, WIRE_TIME_PER_PACKET};

struct Host {
    rt: Arc<LrpcRuntime>,
    /// The network-protocol domain on that machine; incoming RPCs execute
    /// on its threads and bind from it to local servers.
    net_domain: Arc<Domain>,
    net_thread: Arc<Thread>,
    /// Interface name → binding from the network domain to the local
    /// exporter (bound lazily on first incoming call).
    bindings: Mutex<HashMap<String, Arc<Binding>>>,
}

/// A simulated Ethernet connecting whole machines.
pub struct Internet {
    hosts: Mutex<HashMap<String, Arc<Host>>>,
    fault: Mutex<Option<Arc<FaultPlan>>>,
}

impl Internet {
    /// An empty network.
    pub fn new() -> Arc<Internet> {
        Arc::new(Internet {
            hosts: Mutex::new(HashMap::new()),
            fault: Mutex::new(None),
        })
    }

    /// Installs a fault plan governing packet fates on this network.
    pub fn set_fault_plan(&self, plan: Option<Arc<FaultPlan>>) {
        *self.fault.lock() = plan;
    }

    /// Attaches a machine (via its LRPC runtime) to the network under
    /// `hostname`. A network-protocol domain is created on that machine to
    /// receive incoming RPCs.
    pub fn attach(&self, hostname: impl Into<String>, rt: Arc<LrpcRuntime>) {
        let net_domain = rt.kernel().create_domain("network-protocols");
        let net_thread = rt.kernel().spawn_thread(&net_domain);
        self.hosts.lock().insert(
            hostname.into(),
            Arc::new(Host {
                rt,
                net_domain,
                net_thread,
                bindings: Mutex::new(HashMap::new()),
            }),
        );
    }

    /// Number of attached hosts.
    pub fn host_count(&self) -> usize {
        self.hosts.lock().len()
    }

    fn find_exporter(&self, interface: &str) -> Option<Arc<Host>> {
        self.hosts
            .lock()
            .values()
            .find(|h| h.rt.exports(interface))
            .cloned()
    }

    fn remote_binding(&self, host: &Arc<Host>, interface: &str) -> Result<Arc<Binding>, CallError> {
        let mut bindings = host.bindings.lock();
        if let Some(b) = bindings.get(interface) {
            return Ok(Arc::clone(b));
        }
        let b = Arc::new(host.rt.import(&host.net_domain, interface)?);
        bindings.insert(interface.to_string(), Arc::clone(&b));
        Ok(b)
    }
}

impl RemoteTransport for Internet {
    fn exports(&self, interface: &str) -> bool {
        self.find_exporter(interface).is_some()
    }

    fn interface(&self, interface: &str) -> Option<Arc<CompiledInterface>> {
        let host = self.find_exporter(interface)?;
        let binding = self.remote_binding(&host, interface).ok()?;
        Some(Arc::clone(binding.interface()))
    }

    fn call(
        &self,
        interface: &str,
        proc_index: usize,
        args: &[Value],
        cpu: &Cpu,
        meter: &mut Meter,
    ) -> Result<RemoteReply, CallError> {
        let host = self
            .find_exporter(interface)
            .ok_or_else(|| CallError::ImportTimeout {
                name: interface.to_string(),
            })?;
        let binding = self.remote_binding(&host, interface)?;
        let proc = binding
            .interface()
            .procs
            .get(proc_index)
            .ok_or(CallError::BadProcedure { index: proc_index })?;

        // Request packets over the wire.
        let request = marshal::marshal_args(proc, args)?;
        let req_packets = packets_for(request.len());
        let req_cost = (PACKET_PROCESSING * 2 + WIRE_TIME_PER_PACKET) * req_packets;
        meter.charge(cpu, Phase::Network, req_cost);
        let plan = self.fault.lock().clone();
        apply_packet_faults(plan.as_ref(), "internet:req", req_packets, cpu, meter)?;

        // The remote machine's network-protocol domain makes an ordinary
        // LRPC to the local exporter. The caller blocks for all of it, so
        // the remote processing time lands on the caller's clock too.
        let remote_cpu = host.rt.kernel().machine().cpu(0);
        let before = remote_cpu.now();
        let out = binding.call_indexed(0, &host.net_thread, proc_index, args)?;
        let remote_time = remote_cpu.now() - before;
        meter.charge(cpu, Phase::Network, remote_time);

        // Reply packets.
        let reply = marshal::marshal_reply(proc, out.ret.as_ref(), &out.outs)?;
        let reply_packets = packets_for(reply.len());
        let reply_cost = (PACKET_PROCESSING * 2 + WIRE_TIME_PER_PACKET) * reply_packets;
        meter.charge(cpu, Phase::Network, reply_cost);
        apply_packet_faults(plan.as_ref(), "internet:reply", reply_packets, cpu, meter)?;

        Ok((out.ret, out.outs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use firefly::time::Nanos;
    use lrpc::{Handler, Reply, ServerCtx, TestRuntime};

    fn machine_rt() -> Arc<LrpcRuntime> {
        TestRuntime::new().domain_caching(false).build()
    }

    #[test]
    fn remote_call_composes_wire_and_remote_lrpc() {
        // Machine A (client) and machine B (file server).
        let rt_a = machine_rt();
        let rt_b = machine_rt();
        let net = Internet::new();
        net.attach("alpha", Arc::clone(&rt_a));
        net.attach("beta", Arc::clone(&rt_b));
        assert_eq!(net.host_count(), 2);

        // Beta exports a file server — locally, as any server would.
        let server = rt_b.kernel().create_domain("file-server");
        rt_b.export(
            &server,
            "interface Files { procedure Size(handle: int32) -> int32; }",
            vec![
                Box::new(|_: &ServerCtx, args: &[Value]| Ok(Reply::value(args[0].clone())))
                    as Handler,
            ],
        )
        .unwrap();

        // Alpha imports it remotely through the network.
        rt_a.set_remote_transport(Arc::clone(&net) as Arc<dyn lrpc::RemoteTransport>);
        let app = rt_a.kernel().create_domain("app");
        let thread = rt_a.kernel().spawn_thread(&app);
        let far = rt_a.import_remote(&app, "Files").expect("remote import");

        let out = far
            .call(0, &thread, "Size", &[Value::Int32(99)])
            .expect("remote call");
        assert_eq!(out.ret, Some(Value::Int32(99)));
        // The round trip includes two one-packet wire legs plus the remote
        // machine's *actual* local LRPC (measurable on B's clock).
        assert!(out.elapsed > Nanos::from_micros(2_000), "{}", out.elapsed);
        assert!(
            rt_b.kernel().machine().cpu(0).now() >= Nanos::from_micros(157),
            "the remote LRPC really ran on machine B"
        );
    }

    #[test]
    fn remote_server_termination_propagates_as_an_error() {
        let rt_a = machine_rt();
        let rt_b = machine_rt();
        let net = Internet::new();
        net.attach("alpha", Arc::clone(&rt_a));
        net.attach("beta", Arc::clone(&rt_b));

        let server = rt_b.kernel().create_domain("doomed");
        rt_b.export(
            &server,
            "interface D { procedure P(); }",
            vec![Box::new(|_: &ServerCtx, _: &[Value]| Ok(Reply::none())) as Handler],
        )
        .unwrap();
        rt_a.set_remote_transport(Arc::clone(&net) as Arc<dyn lrpc::RemoteTransport>);
        let app = rt_a.kernel().create_domain("app");
        let thread = rt_a.kernel().spawn_thread(&app);
        let far = rt_a.import_remote(&app, "D").expect("remote import");
        far.call(0, &thread, "P", &[]).expect("server alive");

        // The server dies on machine B; the remote caller sees the
        // failure, not a hang.
        rt_b.terminate_domain(&server);
        let err = far.call(0, &thread, "P", &[]).unwrap_err();
        // Depending on where the teardown is observed, the caller sees the
        // revoked binding or the withdrawn export.
        assert!(
            matches!(
                err,
                CallError::BindingRevoked
                    | CallError::InvalidBinding(_)
                    | CallError::DomainDead
                    | CallError::ImportTimeout { .. }
            ),
            "got {err}"
        );
    }

    #[test]
    fn unknown_interfaces_are_not_found_on_any_host() {
        let net = Internet::new();
        net.attach("only", machine_rt());
        assert!(!net.exports("Ghost"));
        assert!(net.interface("Ghost").is_none());
    }
}
