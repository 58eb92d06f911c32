//! The LRPC stub generator, as a command-line tool.
//!
//! "The LRPC stub generator produces run-time stubs in assembly language
//! directly from Modula2+ definition files" (Section 3.3). This tool reads
//! an interface definition (from a file argument or stdin) and prints what
//! the generator produced: the A-stack layouts (marking the in-parameters
//! the server stub copies off the shared A-stack, Section 3.5), the
//! Procedure Descriptor List the clerk will hand the kernel at bind time,
//! and what runs for each stub half — the bind-time copy plan, with the
//! client call's moves, or the stub interpreter.
//!
//! ```text
//! cargo run -p idl --bin stubgen -- interface.idl
//! echo 'interface M { procedure Add(a: int32, b: int32) -> int32; }' \
//!     | cargo run -p idl --bin stubgen
//! ```

use std::io::Read;

use idl::layout::SlotKind;
use idl::plan::{ProcPlan, PushStep};
use idl::stubgen::{compile, CompiledProc, StubLang};
use idl::stubvm::needs_server_copy;

/// One client-call move, e.g. `fused move of 8 bytes to +0: a, b`.
fn describe_move(p: &CompiledProc, step: &PushStep) -> String {
    let (kind, bytes, offset, params) = match *step {
        PushStep::Run {
            first,
            count,
            offset,
            len,
        } => {
            let kind = if count > 1 { "fused move" } else { "move" };
            (kind, len.to_string(), offset, first..first + count)
        }
        PushStep::Bytes { param, offset, len } => {
            ("direct move", len.to_string(), offset, param..param + 1)
        }
        PushStep::Var { param, offset, max } => (
            "length-prefixed move",
            format!("4 + up to {max}"),
            offset,
            param..param + 1,
        ),
    };
    let names: Vec<&str> = p.def.params[params]
        .iter()
        .map(|q| q.name.as_str())
        .collect();
    format!("{kind} of {bytes} bytes to +{offset}: {}", names.join(", "))
}

fn print_proc(p: &CompiledProc) {
    let (lang, path) = match p.lang {
        StubLang::Assembly => ("assembly", "fast path"),
        StubLang::Modula2Plus => ("Modula2+", "marshaling path"),
    };
    println!("procedure {} (identifier {})", p.def.name, p.pd.entry);
    println!("  language: {lang} ({path})");
    println!(
        "  A-stacks: {} x {} bytes{}",
        p.pd.simultaneous_calls,
        p.pd.astack_size,
        if p.layout.fixed {
            " (exact, all parameters fixed-size)"
        } else {
            ""
        }
    );
    if p.layout.uses_out_of_band {
        println!("  note: some values travel in out-of-band segments");
    }
    println!("  frame layout ({} bytes used):", p.layout.frame_size);
    for (slot, param) in p.layout.params.iter().zip(&p.def.params) {
        let note = match slot.kind {
            SlotKind::OutOfBand => "(out-of-band descriptor)",
            SlotKind::Inline if param.dir.is_in() && needs_server_copy(param, p.def.inplace) => {
                "(server copy)"
            }
            SlotKind::Inline => "",
        };
        println!(
            "    +{:<4} {:<5} {:<24} {:?} {note}",
            slot.offset,
            format!("[{}]", slot.size),
            format!("{}: {}", param.name, param.ty),
            param.dir,
        );
    }
    if let (Some(slot), Some(ret)) = (&p.layout.ret, &p.def.ret) {
        println!(
            "    +{:<4} {:<5} {:<24} ret",
            slot.offset,
            format!("[{}]", slot.size),
            ret
        );
    }
    let plan = ProcPlan::compile(p);
    let interpreter = format!("interpreter ({lang})");
    let half = |label: &str, compiled: bool| {
        println!(
            "  {label:<14} {}",
            if compiled { "copy plan" } else { &interpreter }
        );
    };
    half("client call:", plan.push.is_some());
    for step in plan.push.iter().flat_map(|push| push.steps()) {
        println!("    {}", describe_move(p, step));
    }
    half("server entry:", plan.read.is_some());
    half("server return:", plan.place.is_some());
    half("client return:", plan.fetch.is_some());
    println!();
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let src = match args.first().map(String::as_str) {
        Some("--help" | "-h") => {
            eprintln!("usage: stubgen [interface.idl]   (reads stdin if no file given)");
            return;
        }
        Some(path) => match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("stubgen: cannot read {path}: {e}");
                std::process::exit(1);
            }
        },
        None => {
            let mut buf = String::new();
            if let Err(e) = std::io::stdin().read_to_string(&mut buf) {
                eprintln!("stubgen: cannot read stdin: {e}");
                std::process::exit(1);
            }
            buf
        }
    };

    let def = match idl::parse(&src) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("stubgen: parse error at {e}");
            std::process::exit(1);
        }
    };
    let compiled = compile(&def);

    println!(
        "interface {} — {} procedure(s)",
        compiled.name,
        compiled.procs.len()
    );
    let total_astack_bytes: usize = compiled
        .pdl()
        .iter()
        .map(|pd| pd.astack_size * pd.simultaneous_calls as usize)
        .sum();
    println!("pairwise A-stack allocation at bind time: {total_astack_bytes} bytes\n");
    for p in &compiled.procs {
        print_proc(p);
    }
}
