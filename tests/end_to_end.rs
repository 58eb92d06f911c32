//! Cross-crate integration: a small operating system of cooperating
//! protection domains, built entirely on LRPC.

use std::sync::Arc;

use firefly::cpu::Machine;
use idl::wire::Value;
use kernel::kernel::Kernel;
use lrpc::{Binding, CallError, Handler, LrpcRuntime, Reply, ServerCtx, TestRuntime};
use msgrpc::{MsgHandler, RemoteMachine};
use parking_lot::Mutex;

/// Builds a three-tier system: an `app` domain calls a `name-db` domain,
/// whose handler calls a `storage` domain — the thread crosses all three.
#[test]
fn three_tier_system_works_end_to_end() {
    let kernel = Kernel::new(Machine::cvax_firefly());
    let rt = LrpcRuntime::new(kernel);

    // Tier 3: storage keeps raw bytes by slot.
    let storage = rt.kernel().create_domain("storage");
    let blocks: Arc<Mutex<Vec<Vec<u8>>>> = Arc::new(Mutex::new(Vec::new()));
    let blocks2 = Arc::clone(&blocks);
    let blocks3 = Arc::clone(&blocks);
    rt.export(
        &storage,
        r#"interface Storage {
            procedure Store(data: in var bytes[512] noninterpreted) -> int32;
            procedure Fetch(slot: int32, data: out bytes[512]) -> int32;
        }"#,
        vec![
            Box::new(move |_: &ServerCtx, args: &[Value]| {
                let Value::Var(data) = &args[0] else {
                    unreachable!()
                };
                let mut blocks = blocks2.lock();
                blocks.push(data.clone());
                Ok(Reply::value(Value::Int32(blocks.len() as i32 - 1)))
            }) as Handler,
            Box::new(move |_: &ServerCtx, args: &[Value]| {
                let Value::Int32(slot) = args[0] else {
                    unreachable!()
                };
                let blocks = blocks3.lock();
                let data = blocks
                    .get(slot as usize)
                    .ok_or(CallError::ServerFault("bad slot".into()))?;
                let mut buf = vec![0u8; 512];
                buf[..data.len()].copy_from_slice(data);
                Ok(Reply::value(Value::Int32(data.len() as i32)).with_out(1, Value::Bytes(buf)))
            }) as Handler,
        ],
    )
    .unwrap();

    // Tier 2: the name database maps keys to storage slots, calling into
    // storage on the client's thread.
    let namedb = rt.kernel().create_domain("name-db");
    let table: Arc<Mutex<Vec<(i32, i32)>>> = Arc::new(Mutex::new(Vec::new()));
    let storage_binding: Arc<Mutex<Option<Binding>>> = Arc::new(Mutex::new(None));
    let rt2 = Arc::clone(&rt);
    let namedb2 = Arc::clone(&namedb);
    let table_put = Arc::clone(&table);
    let table_get = Arc::clone(&table);
    let sb_put = Arc::clone(&storage_binding);
    let sb_get = Arc::clone(&storage_binding);
    let bind_storage = move |rt: &Arc<LrpcRuntime>,
                             cell: &Arc<Mutex<Option<Binding>>>,
                             domain: &Arc<kernel::Domain>|
          -> Result<(), CallError> {
        let mut guard = cell.lock();
        if guard.is_none() {
            *guard = Some(rt.import(domain, "Storage")?);
        }
        Ok(())
    };
    let rt3 = Arc::clone(&rt);
    let namedb3 = Arc::clone(&namedb);
    rt.export(
        &namedb,
        r#"interface NameDb {
            procedure Put(key: int32, value: in var bytes[512]) -> int32;
            procedure Get(key: int32, value: out bytes[512]) -> int32;
        }"#,
        vec![
            Box::new(move |ctx: &ServerCtx, args: &[Value]| {
                bind_storage(&rt2, &sb_put, &namedb2)?;
                let guard = sb_put.lock();
                let storage = guard.as_ref().expect("bound");
                let out = storage.call_indexed(ctx.cpu_id, ctx.thread, 0, &[args[1].clone()])?;
                let Some(Value::Int32(slot)) = out.ret else {
                    unreachable!()
                };
                let Value::Int32(key) = args[0] else {
                    unreachable!()
                };
                table_put.lock().push((key, slot));
                Ok(Reply::value(Value::Int32(slot)))
            }) as Handler,
            Box::new(move |ctx: &ServerCtx, args: &[Value]| {
                let mut cell = sb_get.lock();
                if cell.is_none() {
                    *cell = Some(rt3.import(&namedb3, "Storage")?);
                }
                let storage = cell.as_ref().expect("bound");
                let Value::Int32(key) = args[0] else {
                    unreachable!()
                };
                let slot = table_get
                    .lock()
                    .iter()
                    .find(|(k, _)| *k == key)
                    .map(|(_, s)| *s)
                    .ok_or(CallError::ServerFault("unknown key".into()))?;
                let out = storage.call_indexed(
                    ctx.cpu_id,
                    ctx.thread,
                    1,
                    &[Value::Int32(slot), Value::Bytes(vec![0; 512])],
                )?;
                let mut reply = Reply::value(out.ret.expect("length"));
                for (i, v) in out.outs {
                    if i == 1 {
                        reply = reply.with_out(1, v);
                    }
                }
                Ok(reply)
            }) as Handler,
        ],
    )
    .unwrap();

    // Tier 1: the application.
    let app = rt.kernel().create_domain("app");
    let thread = rt.kernel().spawn_thread(&app);
    let db = rt.import(&app, "NameDb").unwrap();

    let put = db
        .call(
            0,
            &thread,
            "Put",
            &[Value::Int32(1), Value::Var(b"hello, firefly".to_vec())],
        )
        .expect("Put crosses app -> name-db -> storage");
    assert_eq!(put.ret, Some(Value::Int32(0)));
    assert_eq!(thread.call_depth(), 0, "all linkages unwound");
    assert_eq!(thread.current_domain(), app.id());

    let get = db
        .call(
            0,
            &thread,
            "Get",
            &[Value::Int32(1), Value::Bytes(vec![0; 512])],
        )
        .expect("Get");
    let Some(Value::Int32(len)) = get.ret else {
        panic!("length")
    };
    let Some((_, Value::Bytes(data))) = get.outs.first() else {
        panic!("data")
    };
    assert_eq!(&data[..len as usize], b"hello, firefly");

    // The nested call is strictly more expensive than a flat one: two
    // full transfers.
    assert!(put.elapsed > firefly::Nanos::from_micros(300));
}

#[test]
fn local_and_remote_servers_share_a_programming_model() {
    let kernel = Kernel::new(Machine::cvax_firefly());
    let rt = LrpcRuntime::new(kernel);

    const ECHO_IDL: &str = "interface Echo { procedure Echo(x: int32) -> int32; }";
    let local_domain = rt.kernel().create_domain("local-echo");
    rt.export(
        &local_domain,
        ECHO_IDL,
        vec![
            Box::new(|_: &ServerCtx, args: &[Value]| Ok(Reply::value(args[0].clone()))) as Handler,
        ],
    )
    .unwrap();

    let remote = RemoteMachine::new("far-away");
    remote
        .export(
            "interface FarEcho { procedure Echo(x: int32) -> int32; }",
            vec![Box::new(|args: &[Value]| Ok(Reply::value(args[0].clone()))) as MsgHandler],
        )
        .unwrap();
    rt.set_remote_transport(remote);

    let app = rt.kernel().create_domain("app");
    let thread = rt.kernel().spawn_thread(&app);
    let near = rt.import(&app, "Echo").unwrap();
    let far = rt.import_remote(&app, "FarEcho").unwrap();

    let near_out = near.call(0, &thread, "Echo", &[Value::Int32(7)]).unwrap();
    let far_out = far.call(0, &thread, "Echo", &[Value::Int32(7)]).unwrap();
    assert_eq!(near_out.ret, far_out.ret, "transparent results");
    assert!(
        far_out.elapsed.as_nanos() > 4 * near_out.elapsed.as_nanos(),
        "the remote call is far slower: {} vs {}",
        far_out.elapsed,
        near_out.elapsed
    );
}

#[test]
fn a_remote_batch_runs_serial_calls_and_reports_their_time() {
    let kernel = Kernel::new(Machine::cvax_firefly());
    let rt = LrpcRuntime::new(kernel);
    let remote = RemoteMachine::new("far-away");
    remote
        .export(
            "interface FarEcho { procedure Echo(x: int32) -> int32; }",
            vec![Box::new(|args: &[Value]| Ok(Reply::value(args[0].clone()))) as MsgHandler],
        )
        .unwrap();
    rt.set_remote_transport(remote);
    let app = rt.kernel().create_domain("app");
    let thread = rt.kernel().spawn_thread(&app);
    let far = rt.import_remote(&app, "FarEcho").unwrap();
    let echo = far.proc_index("Echo").unwrap();
    let requests: Vec<(usize, Vec<Value>)> =
        (0..4).map(|i| (echo, vec![Value::Int32(i)])).collect();

    // A remote binding has no ring: every request degrades to a serial call.
    let stats = &far.state().stats;
    let remote_before = stats.remote_calls();
    let out = far.call_batch(0, &thread, requests.clone()).unwrap();
    assert_eq!(out.degraded, 4);
    assert_eq!((out.doorbells, out.traps), (0, 0));
    assert!(out.batch_meter.segments().is_empty());
    assert_eq!(stats.remote_calls(), remote_before + 4);

    let batched: Vec<_> = out.results.iter().map(|r| r.as_ref().unwrap()).collect();
    for ((proc_index, args), b) in requests.iter().zip(&batched) {
        let serial = far.call_indexed(0, &thread, *proc_index, args).unwrap();
        assert_eq!(
            (&b.ret, &b.outs, b.elapsed),
            (&serial.ret, &serial.outs, serial.elapsed)
        );
    }
    assert_eq!(
        out.elapsed,
        batched.iter().map(|b| b.elapsed).sum::<firefly::Nanos>(),
        "the batch took the time of its serial calls"
    );
}

#[test]
fn import_without_transport_fails_cleanly() {
    let kernel = Kernel::new(Machine::cvax_uniprocessor());
    let rt = LrpcRuntime::new(kernel);
    let app = rt.kernel().create_domain("app");
    assert!(matches!(
        rt.import_remote(&app, "Anything").map(|_| ()),
        Err(CallError::NoRemoteTransport)
    ));
}

#[test]
fn terminating_a_middle_tier_fails_callers_but_not_the_system() {
    let rt = TestRuntime::new().domain_caching(false).build();

    let a = rt.kernel().create_domain("A");
    let b = rt.kernel().create_domain("B");
    const IDL_A: &str = "interface SvcA { procedure Pa(); }";
    const IDL_B: &str = "interface SvcB { procedure Pb(); }";
    rt.export(
        &a,
        IDL_A,
        vec![Box::new(|_: &ServerCtx, _: &[Value]| Ok(Reply::none())) as Handler],
    )
    .unwrap();
    rt.export(
        &b,
        IDL_B,
        vec![Box::new(|_: &ServerCtx, _: &[Value]| Ok(Reply::none())) as Handler],
    )
    .unwrap();

    let app = rt.kernel().create_domain("app");
    let thread = rt.kernel().spawn_thread(&app);
    let ba = rt.import(&app, "SvcA").unwrap();
    let bb = rt.import(&app, "SvcB").unwrap();

    ba.call(0, &thread, "Pa", &[]).unwrap();
    bb.call(0, &thread, "Pb", &[]).unwrap();

    rt.terminate_domain(&a);

    // Calls to A now fail; calls to B are untouched.
    assert!(ba.call(0, &thread, "Pa", &[]).is_err());
    for _ in 0..10 {
        bb.call(0, &thread, "Pb", &[]).unwrap();
    }

    // And the client can terminate too: its own binding to B is revoked.
    rt.terminate_domain(&app);
    assert!(bb.call(0, &thread, "Pb", &[]).is_err());
}
