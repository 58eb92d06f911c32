//! Simulated network transport for truly remote calls (Section 5.1).
//!
//! When the Binding Object's remote bit is set, the LRPC client stub
//! branches to a conventional RPC stub that marshals arguments into
//! Ethernet packets and ships them to the remote machine. "Most existing
//! RPC protocols are built on simple packet exchange protocols, and
//! multi-packet calls have performance problems" — the per-packet costs
//! below make that concrete (and justify the Ethernet-sized A-stack
//! default of Section 5.2).

use std::collections::HashMap;
use std::sync::Arc;

use firefly::cpu::Cpu;
use firefly::fault::FaultPlan;
use firefly::meter::{Meter, Phase};
use firefly::time::Nanos;
use idl::layout::ETHERNET_PACKET_SIZE;
use idl::stubgen::{compile, CompiledInterface};
use idl::wire::Value;
use lrpc::{CallError, RemoteReply, RemoteTransport, Reply};
use parking_lot::Mutex;

use crate::marshal;
use crate::system::MsgHandler;

/// Wire time per Ethernet packet (one direction).
pub const WIRE_TIME_PER_PACKET: Nanos = Nanos::from_micros(650);

/// Protocol processing per packet per side (packetize/checksum/receive).
pub const PACKET_PROCESSING: Nanos = Nanos::from_micros(300);

/// Remote-side dispatch overhead per call.
pub const REMOTE_DISPATCH: Nanos = Nanos::from_micros(90);

/// Stub time per call (conventional marshaling stubs).
pub const NETWORK_STUBS: Nanos = Nanos::from_micros(70);

struct RemoteExport {
    interface: Arc<CompiledInterface>,
    handlers: Vec<MsgHandler>,
}

/// A machine reachable over the simulated Ethernet.
pub struct RemoteMachine {
    name: String,
    exports: Mutex<HashMap<String, Arc<RemoteExport>>>,
    fault: Mutex<Option<Arc<FaultPlan>>>,
}

impl RemoteMachine {
    /// A remote machine with the given host name.
    pub fn new(name: impl Into<String>) -> Arc<RemoteMachine> {
        Arc::new(RemoteMachine {
            name: name.into(),
            exports: Mutex::new(HashMap::new()),
            fault: Mutex::new(None),
        })
    }

    /// The host name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Installs a fault plan governing this machine's packet fates.
    pub fn set_fault_plan(&self, plan: Option<Arc<FaultPlan>>) {
        *self.fault.lock() = plan;
    }

    /// Exports an interface on the remote machine.
    pub fn export(&self, idl_src: &str, handlers: Vec<MsgHandler>) -> Result<(), CallError> {
        let def = idl::parse(idl_src)
            .map_err(|e| CallError::ServerFault(format!("interface parse error: {e}")))?;
        let interface = Arc::new(compile(&def));
        if interface.procs.len() != handlers.len() {
            return Err(CallError::ServerFault("handler count mismatch".into()));
        }
        self.exports.lock().insert(
            def.name.clone(),
            Arc::new(RemoteExport {
                interface,
                handlers,
            }),
        );
        Ok(())
    }

    fn lookup(&self, name: &str) -> Option<Arc<RemoteExport>> {
        self.exports.lock().get(name).cloned()
    }
}

/// Packets needed for a payload (at least one — the header travels even
/// for empty payloads).
pub fn packets_for(bytes: usize) -> u64 {
    (bytes.max(1)).div_ceil(ETHERNET_PACKET_SIZE) as u64
}

/// Runs one wire leg of `count` packets through the fault plan: each
/// retransmission re-pays the full per-packet send cost, duplicates bill
/// the receiver one extra processing charge, delays ride on the wire, and
/// a packet lost [`firefly::fault::MAX_RETRANSMISSIONS`] times fails the
/// call with [`CallError::Network`]. With no plan (or all-zero knobs) this
/// charges nothing and always succeeds.
pub fn apply_packet_faults(
    plan: Option<&Arc<FaultPlan>>,
    site: &str,
    count: u64,
    cpu: &Cpu,
    meter: &mut Meter,
) -> Result<(), CallError> {
    let Some(plan) = plan else { return Ok(()) };
    let per_send = PACKET_PROCESSING * 2 + WIRE_TIME_PER_PACKET;
    for _ in 0..count {
        let fate = plan.packet_fate(site);
        let mut extra = FaultPlan::retransmission_cost(&fate, per_send);
        if fate.duplicated {
            extra += PACKET_PROCESSING;
        }
        if !extra.is_zero() {
            meter.charge(cpu, Phase::Network, extra);
        }
        if fate.lost_forever {
            return Err(CallError::Network(format!(
                "packet lost on {site} after {} retransmissions",
                fate.retransmissions
            )));
        }
    }
    Ok(())
}

impl RemoteTransport for RemoteMachine {
    fn exports(&self, interface: &str) -> bool {
        self.lookup(interface).is_some()
    }

    fn interface(&self, interface: &str) -> Option<Arc<CompiledInterface>> {
        self.lookup(interface).map(|e| Arc::clone(&e.interface))
    }

    fn call(
        &self,
        interface: &str,
        proc_index: usize,
        args: &[Value],
        cpu: &Cpu,
        meter: &mut Meter,
    ) -> Result<RemoteReply, CallError> {
        let export = self
            .lookup(interface)
            .ok_or_else(|| CallError::ImportTimeout {
                name: interface.to_string(),
            })?;
        let proc = export
            .interface
            .procs
            .get(proc_index)
            .ok_or(CallError::BadProcedure { index: proc_index })?;

        // Conventional stubs marshal the arguments.
        meter.charge(cpu, Phase::Marshal, NETWORK_STUBS);
        let payload = marshal::marshal_args(proc, args)?;

        // Request packets: packetize, wire, receive.
        let req_packets = packets_for(payload.len());
        let req_cost =
            (PACKET_PROCESSING * 2 + WIRE_TIME_PER_PACKET) * req_packets + REMOTE_DISPATCH;
        meter.charge(cpu, Phase::Network, req_cost);
        let plan = self.fault.lock().clone();
        apply_packet_faults(
            plan.as_ref(),
            &format!("net:{}:req", self.name),
            req_packets,
            cpu,
            meter,
        )?;

        // The remote server runs the procedure.
        let vals = marshal::unmarshal_args(proc, &payload)?;
        let handler = &export.handlers[proc_index];
        let Reply { ret, outs } = handler(&vals)?;

        // Reply packets.
        let reply_payload = marshal::marshal_reply(proc, ret.as_ref(), &outs)?;
        let reply_packets = packets_for(reply_payload.len());
        let reply_cost = (PACKET_PROCESSING * 2 + WIRE_TIME_PER_PACKET) * reply_packets;
        meter.charge(cpu, Phase::Network, reply_cost);
        apply_packet_faults(
            plan.as_ref(),
            &format!("net:{}:reply", self.name),
            reply_packets,
            cpu,
            meter,
        )?;

        let (ret, outs) = marshal::unmarshal_reply(proc, &reply_payload)?;
        Ok((ret, outs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packet_math() {
        assert_eq!(packets_for(0), 1);
        assert_eq!(packets_for(1), 1);
        assert_eq!(packets_for(1500), 1);
        assert_eq!(packets_for(1501), 2);
        assert_eq!(packets_for(4096), 3);
    }

    #[test]
    fn remote_null_is_in_the_milliseconds() {
        // Even an empty call pays stubs + two packets of wire and
        // processing time: far beyond any cross-domain call, which is why
        // "a cross-machine RPC is slower than even a slow cross-domain
        // RPC".
        let machine = firefly::cpu::Machine::cvax_uniprocessor();
        let remote = RemoteMachine::new("fileserver");
        remote
            .export(
                "interface R { procedure Null(); }",
                vec![Box::new(|_: &[Value]| Ok(Reply::none())) as MsgHandler],
            )
            .unwrap();
        let cpu = machine.cpu(0);
        let mut meter = Meter::enabled();
        let (ret, outs) = remote.call("R", 0, &[], cpu, &mut meter).unwrap();
        assert_eq!(ret, None);
        assert!(outs.is_empty());
        let elapsed = cpu.now();
        assert!(
            elapsed >= Nanos::from_micros(2_000),
            "remote Null must cost milliseconds, got {elapsed}"
        );
    }

    #[test]
    fn multi_packet_calls_cost_proportionally_more() {
        let machine = firefly::cpu::Machine::cvax_uniprocessor();
        let remote = RemoteMachine::new("blob");
        remote
            .export(
                "interface B { procedure Put(data: var bytes[8192]); }",
                vec![Box::new(|_: &[Value]| Ok(Reply::none())) as MsgHandler],
            )
            .unwrap();
        let cpu = machine.cpu(0);
        let mut meter = Meter::enabled();
        remote
            .call("B", 0, &[Value::Var(vec![0; 100])], cpu, &mut meter)
            .unwrap();
        let small = cpu.now();
        remote
            .call("B", 0, &[Value::Var(vec![0; 6000])], cpu, &mut meter)
            .unwrap();
        let big = cpu.now() - small;
        assert!(big > small, "6000 bytes need 4 packets, 100 bytes need 1");
    }

    #[test]
    fn unknown_interface_and_procedure_error() {
        let machine = firefly::cpu::Machine::cvax_uniprocessor();
        let remote = RemoteMachine::new("x");
        let cpu = machine.cpu(0);
        let mut meter = Meter::disabled();
        assert!(remote.call("Nope", 0, &[], cpu, &mut meter).is_err());
        remote
            .export(
                "interface Y { procedure P(); }",
                vec![Box::new(|_: &[Value]| Ok(Reply::none())) as MsgHandler],
            )
            .unwrap();
        assert!(remote.call("Y", 5, &[], cpu, &mut meter).is_err());
        assert!(remote.exports("Y"));
        assert!(!remote.exports("Nope"));
    }
}
