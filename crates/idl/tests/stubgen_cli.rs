//! The `stubgen` tool lists what runs for each stub half: the bind-time
//! copy plan with the client call's moves, or the stub interpreter.

use std::io::Write;
use std::process::{Command, Stdio};

/// The paper's four Table-4 procedures plus one taking a complex type.
const IDL: &str = "interface Bench {
    procedure Null();
    procedure Add(a: int32, b: int32) -> int32;
    procedure BigIn(data: in bytes[200] noninterpreted);
    procedure BigInOut(data: inout bytes[200] noninterpreted);
    procedure Walk(t: tree);
}";

fn stubgen(src: &str) -> String {
    let mut child = Command::new(env!("CARGO_BIN_EXE_stubgen"))
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("stubgen starts");
    child
        .stdin
        .take()
        .unwrap()
        .write_all(src.as_bytes())
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success(), "stubgen failed: {out:?}");
    String::from_utf8(out.stdout).unwrap()
}

/// The listing of one stub half of procedure `name`: the text after the
/// half's label, then the indented lines below it (the client call's
/// moves), trimmed.
fn half(listing: &str, name: &str, label: &str) -> (String, Vec<String>) {
    let mut lines = listing
        .lines()
        .skip_while(|l| !l.starts_with(&format!("procedure {name} ")))
        .take_while(|l| !l.is_empty())
        .skip_while(|l| !l.trim_start().starts_with(label));
    let head = lines
        .next()
        .unwrap_or_else(|| panic!("no {label} half for {name} in:\n{listing}"));
    let moves = lines
        .take_while(|l| l.starts_with("    "))
        .map(|l| l.trim().to_string())
        .collect();
    (head.trim()[label.len()..].trim().to_string(), moves)
}

#[test]
fn stubgen_lists_the_halves_that_run() {
    let listing = stubgen(IDL);

    // Add's two int32 arguments tile the frame: one fused move.
    let (add, moves) = half(&listing, "Add", "client call:");
    assert_eq!(add, "copy plan");
    assert_eq!(moves, ["fused move of 8 bytes to +0: a, b"]);

    // BigIn's byte array moves straight from the caller's buffer.
    let (big_in, moves) = half(&listing, "BigIn", "client call:");
    assert_eq!(big_in, "copy plan");
    assert_eq!(moves, ["direct move of 200 bytes to +0: data"]);

    // Null moves nothing; every half of the four Table-4 procedures runs
    // as a copy plan.
    assert!(half(&listing, "Null", "client call:").1.is_empty());
    for name in ["Null", "Add", "BigIn", "BigInOut"] {
        for label in [
            "client call:",
            "server entry:",
            "server return:",
            "client return:",
        ] {
            assert_eq!(half(&listing, name, label).0, "copy plan", "{name} {label}");
        }
    }

    // A complex type puts the procedure on the Modula2+ path, and its
    // argument-moving halves on the interpreter.
    for label in ["client call:", "server entry:"] {
        let (walk, moves) = half(&listing, "Walk", label);
        assert_eq!(walk, "interpreter (Modula2+)", "{label}");
        assert!(moves.is_empty());
    }
    assert!(listing.contains("language: Modula2+ (marshaling path)"));
}

#[test]
fn stubgen_marks_the_server_side_copies() {
    let listing = stubgen(
        "interface B { procedure P(n: cardinal, d: var bytes[64], e: var bytes[64] noninterpreted, \
         f: int32); }",
    );
    let marked: Vec<&str> = listing
        .lines()
        .filter(|l| l.ends_with("(server copy)"))
        .map(|l| l.split_whitespace().nth(2).unwrap())
        .collect();
    assert_eq!(marked, ["n:", "d:"]);
}
