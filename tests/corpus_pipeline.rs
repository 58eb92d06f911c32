//! Cross-crate pipeline: the synthetic Taos interface corpus flows through
//! the printer, the parser, the stub generator, and finally real LRPC
//! exports — the whole toolchain over the §2.2-shaped population.

use idl::wire::Value;
use idl::StubLang;
use lrpc::{Handler, Reply, ServerCtx, TestRuntime};

#[test]
fn the_whole_corpus_prints_parses_and_compiles() {
    let corpus = workload::generate_corpus();
    let mut assembly = 0usize;
    let mut marshaling = 0usize;
    for iface in &corpus {
        // Print → parse round-trips the definition exactly.
        let printed = idl::print_interface(iface);
        let reparsed = idl::parse(&printed)
            .unwrap_or_else(|e| panic!("{}: reparse failed: {e}\n{printed}", iface.name));
        assert_eq!(&reparsed, iface);

        // The stub generator compiles every procedure, choosing the
        // language at compile time.
        let compiled = idl::compile(iface);
        for p in &compiled.procs {
            match p.lang {
                StubLang::Assembly => assembly += 1,
                StubLang::Modula2Plus => marshaling += 1,
            }
            assert!(p.layout.frame_size <= p.layout.astack_size);
        }
    }
    assert_eq!(assembly + marshaling, 366);
    // Only the six complex-typed procedures need the Modula2+ path — the
    // §2.2 claim that machine-generated marshaling is never recursive.
    assert_eq!(marshaling, 6);
}

#[test]
fn a_corpus_service_exports_and_serves_over_lrpc() {
    // Take one generated service and actually run it: echo handlers that
    // return zero for every declared procedure.
    let corpus = workload::generate_corpus();
    let service = &corpus[0];
    let rt = TestRuntime::new().domain_caching(false).build();
    let server = rt.kernel().create_domain("corpus-server");
    let handlers: Vec<Handler> = service
        .procs
        .iter()
        .map(|p| {
            let ret = p.ret.clone();
            Box::new(move |_: &ServerCtx, _: &[Value]| {
                Ok(match &ret {
                    Some(t) => Reply::value(Value::zero_of(t)),
                    None => Reply::none(),
                })
            }) as Handler
        })
        .collect();
    // The printed definition parses back to `service` exactly (the test
    // above), so exporting its source exports the service.
    rt.export(&server, &idl::print_interface(service), handlers)
        .expect("corpus service exports");

    let client = rt.kernel().create_domain("app");
    let thread = rt.kernel().spawn_thread(&client);
    let binding = rt.import(&client, &service.name).expect("import");

    // Call every procedure with zero-valued arguments.
    for (i, p) in service.procs.iter().enumerate() {
        let args: Vec<Value> = p
            .params
            .iter()
            .map(|param| Value::zero_of(&param.ty))
            .collect();
        let out = binding
            .call_indexed(0, &thread, i, &args)
            .unwrap_or_else(|e| panic!("{}.{} failed: {e}", service.name, p.name));
        assert_eq!(out.ret.is_some(), p.ret.is_some());
    }
    assert_eq!(binding.state().stats.calls(), service.procs.len() as u64);
}

#[test]
fn popularity_weighted_load_over_a_generated_service() {
    // Drive one corpus service with the measured popularity mix and check
    // the simple-procedure dominance: the heavily-called procedures are
    // all assembly-stub fast-path ones.
    let corpus = workload::generate_corpus();
    let all: Vec<(usize, usize)> = corpus
        .iter()
        .enumerate()
        .flat_map(|(si, iface)| iface.procs.iter().enumerate().map(move |(pi, _)| (si, pi)))
        .collect();
    let pop = workload::PopularityModel::section_2_2();
    let ranks = pop.sample(99, 5_000);
    for rank in ranks.iter().take(200) {
        let (si, pi) = all[*rank];
        let compiled = idl::compile(&corpus[si]);
        if *rank < 3 {
            assert_eq!(
                compiled.procs[pi].lang,
                StubLang::Assembly,
                "the top procedures never need complex marshaling"
            );
        }
    }
}
