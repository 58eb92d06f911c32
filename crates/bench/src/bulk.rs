//! Host wall-clock benchmark of the large-parameter data plane: bind-time
//! bulk arena vs per-call out-of-band segments.
//!
//! Every payload in this sweep is declared `var bytes[65536]`, so the
//! parameter is statically demoted to an out-of-band slot and travels the
//! bulk plane regardless of its actual length. Two things are measured:
//!
//! * **Transport cycles** (the timed comparison): the staged transport of
//!   one in-direction segment, both ways, as calls performed it before
//!   segments moved in place. The arena leg leases a chunk of the
//!   binding's bind-time bulk region (one lock-free pop), writes an
//!   already marshaled length-prefixed segment, revalidates and rereads it
//!   into a buffer under the server's protection context, and pushes the
//!   chunk back. The fallback leg allocates, pairwise-maps, rewrites,
//!   rereads, unmaps and frees a fresh kernel segment — the way the
//!   pre-arena call path did on *every* large call. The copies are
//!   byte-identical on both legs; the delta is purely the per-call
//!   map/unmap machinery the arena amortized into bind time. Calls now
//!   encode segments straight into the transport and decode them straight
//!   out, in both directions: these cycles time the old staging, not what
//!   a call does.
//!
//! * **Full calls** (the contract checks): one steady-state call per leg
//!   through the real runtime, with the fallback leg forced through the
//!   `bulk_exhaust` fault-injection site. The two legs must charge
//!   bit-identical per-byte virtual time, the fallback paying exactly
//!   [`lrpc::OOB_SEGMENT_COST`] more (Section 5.2's "complicated and
//!   relatively expensive, but infrequent" path), and the arena leg must
//!   record zero per-call fallbacks.

use std::hint::black_box;

use firefly::cpu::Cpu;
use firefly::fault::{FaultConfig, FaultPlan};
use firefly::meter::Meter;
use idl::wire::Value;
use kernel::kernel::Kernel;
use kernel::Domain;
use lrpc::{BulkArena, Handler, Reply, ServerCtx, TestRuntime, OOB_SEGMENT_COST};

use crate::common::{best_ns_per_call, LrpcEnv};
use crate::json::Json;
use crate::suite::{Gate, Opts, SuiteRun, Table};

/// Default transport cycles per measurement leg.
pub const DEFAULT_ITERS: usize = 5_000;

/// Host-speedup floor the gate enforces at and above
/// [`SPEEDUP_FLOOR_BYTES`].
pub const MIN_SPEEDUP: f64 = 2.0;

/// Payload size from which the speedup gate applies. Below this the
/// segment is a page or two and host noise can swamp the map/unmap
/// saving; the gate pins the region where it must matter.
pub const SPEEDUP_FLOOR_BYTES: usize = 8 * 1024;

/// The payload sweep, 64 B to 64 KB.
pub const PAYLOADS: [usize; 7] = [64, 256, 1024, 4096, 8192, 16384, 65536];

/// Declared maximum of the variable-size parameter.
const MAX_VAR: usize = 65536;

const BULK_IDL: &str = r#"
    interface Bulk {
        procedure BigIn(data: in var bytes[65536] noninterpreted);
        procedure BigInOut(data: inout var bytes[65536] noninterpreted);
    }
"#;

/// One `(procedure, payload)` point, both ways.
#[derive(Clone, Debug)]
pub struct BulkPoint {
    /// Procedure name (`BigIn`, `BigInOut`).
    pub proc: &'static str,
    /// Payload bytes per call.
    pub payload: usize,
    /// Host ns per in-direction transport through the bulk arena.
    pub arena_ns: f64,
    /// Host ns per in-direction transport through a per-call segment.
    pub fallback_ns: f64,
    /// fallback / arena.
    pub speedup: f64,
    /// Virtual ns one steady-state arena-leg call charges.
    pub arena_virtual_ns: u64,
    /// Virtual ns one forced-fallback call charges (arena + the segment
    /// map/unmap cost, exactly).
    pub fallback_virtual_ns: u64,
}

/// The full payload sweep.
#[derive(Clone, Debug)]
pub struct BulkBenchReport {
    /// Per-point measurements.
    pub points: Vec<BulkPoint>,
}

impl BulkBenchReport {
    /// The acceptance gates: at and above [`SPEEDUP_FLOOR_BYTES`] the
    /// arena transport must beat the per-call segment by at least
    /// [`MIN_SPEEDUP`]× on the host. (Virtual-charge identity and the
    /// zero-fallback steady state are asserted inside [`run`].)
    pub fn gates(&self) -> Vec<Gate> {
        self.points
            .iter()
            .filter(|p| p.payload >= SPEEDUP_FLOOR_BYTES)
            .map(|p| {
                let name = format!("speedup {}@{}B", p.proc, p.payload);
                Gate::new(name, p.speedup, ">=", MIN_SPEEDUP)
            })
            .collect()
    }
}

fn handlers() -> Vec<Handler> {
    vec![
        Box::new(|_: &ServerCtx, _: &[Value]| Ok(Reply::none())),
        Box::new(|_: &ServerCtx, args: &[Value]| Ok(Reply::none().with_out(0, args[0].clone()))),
    ]
}

/// Builds a single-CPU environment; with `forced_fallback` the
/// `bulk_exhaust` fault site presents the arena as empty on every call,
/// which is exactly the pre-arena per-call segment path.
fn env(forced_fallback: bool) -> LrpcEnv {
    let rt = TestRuntime::new().domain_caching(false).build();
    let env = LrpcEnv::bind(rt, BULK_IDL, handlers());
    if forced_fallback {
        env.rt.set_fault_plan(Some(FaultPlan::new(FaultConfig {
            bulk_exhaust: true,
            ..FaultConfig::default()
        })));
    }
    env
}

/// One arena transport: lease a chunk, write the length-prefixed segment,
/// revalidate and reread it server-side, push the chunk back.
///
/// Both legs copy the same bytes and touch the same number of simulated
/// TLB pages; the reread lands in a reused server-side buffer. The
/// asymmetries left are the real ones: the fallback's fresh region is
/// TLB-cold on every call and pays the map/unmap machinery, while the
/// arena's pages recur across calls and its lease is one lock-free pop.
fn arena_cycle(arena: &BulkArena, server: &Domain, cpu: &Cpu, seg: &[u8], reread: &mut [u8]) {
    let total = seg.len() + 8;
    let chunk = arena.acquire(total).expect("arena chunk");
    let region = arena.region();
    let mut scratch = Meter::disabled();
    let mut hdr = [0u8; 8];
    hdr[..4].copy_from_slice(&(seg.len() as u32).to_le_bytes());
    region.write_raw(chunk.offset, &hdr).unwrap();
    region.write_raw(chunk.offset + 8, seg).unwrap();
    cpu.touch_pages(region.pages_for(chunk.offset, total), &mut scratch);
    server.ctx().check(region.id(), false, false).unwrap();
    region.read_raw(chunk.offset, &mut hdr).unwrap();
    let len = u32::from_le_bytes([hdr[0], hdr[1], hdr[2], hdr[3]]) as usize;
    region
        .read_raw(chunk.offset + 8, &mut reread[..len])
        .unwrap();
    black_box(&reread[..len]);
    cpu.touch_pages(region.pages_for(chunk.offset, len + 8), &mut scratch);
    arena.release(chunk.index);
}

/// One per-call-segment transport: allocate and pairwise-map a fresh
/// kernel region, write/revalidate/reread the same segment, then unmap it
/// from both domains and free it.
fn fallback_cycle(
    kernel: &Kernel,
    client: &Domain,
    server: &Domain,
    cpu: &Cpu,
    seg: &[u8],
    reread: &mut [u8],
) {
    let total = seg.len() + 8;
    let region = kernel.map_pairwise("oob-segment", client, server, total.max(8));
    let mut scratch = Meter::disabled();
    let mut hdr = [0u8; 8];
    hdr[..4].copy_from_slice(&(seg.len() as u32).to_le_bytes());
    region.write_raw(0, &hdr).unwrap();
    region.write_raw(8, seg).unwrap();
    cpu.touch_pages(region.pages_for(0, total), &mut scratch);
    server.ctx().check(region.id(), false, false).unwrap();
    region.read_raw(0, &mut hdr).unwrap();
    let len = u32::from_le_bytes([hdr[0], hdr[1], hdr[2], hdr[3]]) as usize;
    region.read_raw(8, &mut reread[..len]).unwrap();
    black_box(&reread[..len]);
    cpu.touch_pages(region.pages_for(0, len + 8), &mut scratch);
    client.ctx().unmap(region.id());
    server.ctx().unmap(region.id());
    kernel.machine().mem().free(region.id());
}

/// Runs the full payload sweep.
///
/// Panics if the two full-call legs' virtual times ever differ by anything
/// other than exactly [`OOB_SEGMENT_COST`], or if the arena leg ever falls
/// back to a per-call segment — the host comparison is only meaningful
/// while the arena path is the steady state and observationally identical.
pub fn run(iters: usize) -> BulkBenchReport {
    let mut points = Vec::new();
    for proc in ["BigIn", "BigInOut"] {
        for payload in PAYLOADS {
            assert!(payload <= MAX_VAR);
            let args = [Value::Var(vec![0xAB; payload])];
            let arena_env = env(false);
            let fallback_env = env(true);

            // Warm both legs, then pin the virtual-time contract from one
            // steady-state call on each.
            for e in [&arena_env, &fallback_env] {
                e.binding.call(0, &e.thread, proc, &args).expect("warmup");
            }
            let arena_virtual = arena_env
                .binding
                .call(0, &arena_env.thread, proc, &args)
                .expect("measured")
                .elapsed;
            let fallback_virtual = fallback_env
                .binding
                .call(0, &fallback_env.thread, proc, &args)
                .expect("measured")
                .elapsed;
            assert_eq!(
                fallback_virtual,
                arena_virtual + OOB_SEGMENT_COST,
                "{proc} @{payload}B: the fallback must charge the arena leg's \
                 exact virtual time plus the segment map/unmap cost"
            );
            let stats = &arena_env.binding.state().stats;
            assert_eq!(
                stats.bulk_fallbacks(),
                0,
                "{proc} @{payload}B: steady-state calls must never fall back \
                 to a per-call segment"
            );
            assert_eq!(
                fallback_env.binding.state().stats.bulk_fallbacks(),
                fallback_env.binding.state().stats.calls(),
                "{proc} @{payload}B: the forced leg must fall back on every call"
            );

            // Time the transport cycles on the arena leg's real binding
            // state: its arena, domains and kernel.
            let state = arena_env.binding.state();
            let arena = state.bulk.as_ref().expect("oob interface has an arena");
            let kernel = arena_env.binding.runtime().kernel();
            let cpu = kernel.machine().cpu(0);
            // The marshaled segment: u32 length prefix + payload, exactly
            // what the client stub hands the transport.
            let mut seg = (payload as u32).to_le_bytes().to_vec();
            seg.resize(4 + payload, 0xAB);
            let mut reread = vec![0u8; seg.len()];

            // Leg 0 is the arena, leg 1 the per-call segment.
            let [arena_ns, fallback_ns] = best_ns_per_call(iters, |leg| {
                if leg == 0 {
                    arena_cycle(arena, &state.server, cpu, &seg, &mut reread)
                } else {
                    fallback_cycle(kernel, &state.client, &state.server, cpu, &seg, &mut reread)
                }
            });

            points.push(BulkPoint {
                proc,
                payload,
                arena_ns,
                fallback_ns,
                speedup: fallback_ns / arena_ns,
                arena_virtual_ns: arena_virtual.as_nanos(),
                fallback_virtual_ns: fallback_virtual.as_nanos(),
            });
        }
    }
    BulkBenchReport { points }
}

/// The `bulk` suite: [`run`] at [`DEFAULT_ITERS`], one row per point.
pub fn suite(_: &Opts, _: &[Json]) -> SuiteRun {
    let r = run(DEFAULT_ITERS);
    let rows = r.points.iter().map(|p| {
        let host = [p.arena_ns, p.fallback_ns, p.speedup].map(Json::from);
        let virt = [p.arena_virtual_ns, p.fallback_virtual_ns].map(Json::from);
        [
            vec![p.proc.into(), p.payload.into()],
            host.to_vec(),
            virt.to_vec(),
        ]
        .concat()
    });
    let points = Table {
        name: "points",
        columns: &[
            "proc",
            "payload",
            "arena_ns",
            "fallback_ns",
            "speedup",
            "arena_virtual_ns",
            "fallback_virtual_ns",
        ],
        rows: rows.collect(),
    };
    let positive = points.positive(&["payload", "arena_ns", "fallback_ns", "speedup"]);
    SuiteRun {
        text: "Bulk plane: bind-time arena vs per-call OOB segments \
               (host wall-clock ns per transport cycle)\n"
            .into(),
        tables: vec![points],
        gates: [r.gates(), positive].concat(),
        ..SuiteRun::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_legs_work_and_charge_the_pinned_delta() {
        // A tiny run exercises the identity and zero-fallback assertions
        // inside `run` on every sweep point.
        let r = run(2);
        assert_eq!(r.points.len(), 2 * PAYLOADS.len());
        for p in &r.points {
            assert!(p.arena_ns > 0.0 && p.fallback_ns > 0.0);
            assert_eq!(
                p.fallback_virtual_ns - p.arena_virtual_ns,
                OOB_SEGMENT_COST.as_nanos()
            );
        }
    }
}
