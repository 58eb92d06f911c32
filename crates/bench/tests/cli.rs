//! The `bench` binary's exit code, its trajectory files and the report
//! `bench --tables [NAME]` prints.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A fresh directory outside any checkout, where `bench` keeps its
/// trajectory files, holding a copy of the committed `file`.
fn temp_copy(file: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bench-cli-{file}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    std::fs::copy(root.join(file), dir.join(file)).unwrap();
    dir
}

fn bench(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bench"))
        .args(args)
        .current_dir(dir)
        .env("GIT_DIR", dir.join("no-such-repo"))
        .output()
        .unwrap()
}

/// A plain `bench --stubs` next to a trajectory file that no longer
/// parses, or no longer validates, must exit non-zero and leave the file
/// as it was, rather than start a fresh trajectory over it.
#[test]
fn a_run_refuses_to_overwrite_an_unreadable_trajectory() {
    let dir = temp_copy("BENCH_stubs.json");
    let path = dir.join("BENCH_stubs.json");
    let valid = std::fs::read_to_string(&path).unwrap();
    for text in [
        valid.clone() + "}",
        valid.replace("lrpc-bench/v2", "lrpc-bench-stubs/v1"),
    ] {
        std::fs::write(&path, &text).unwrap();
        let out = bench(&dir, &["--stubs"]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{stderr}");
        assert!(stderr.contains("refusing to overwrite"), "{stderr}");
        assert_eq!(std::fs::read_to_string(&path).unwrap(), text);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The plain Figure-2 sweep has no `--check` flag, so its gates always
/// set the exit code; a run that passes them appends one entry.
#[test]
fn the_plain_sweep_is_gated() {
    let dir = temp_copy("BENCH_throughput.json");
    let out = bench(&dir, &["--calls", "20", "--threads", "2"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    for column in ["calls_per_sec", "virtual_ns_per_call"] {
        assert!(stdout.contains(&format!("gate ok: min points.{column}")));
    }
    let text = std::fs::read_to_string(dir.join("BENCH_throughput.json")).unwrap();
    assert_eq!(text.matches("\"git_rev\"").count(), 2, "{text}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `bench --tables` prints virtual time only, so its output is the same
/// on every host and in debug and release builds: a byte that moves is a
/// moved table. When a change moves one on purpose, regenerate the golden
/// file as EXPERIMENTS.md says.
#[test]
fn tables_output_matches_the_golden_file() {
    let out = Command::new(env!("CARGO_BIN_EXE_bench"))
        .arg("--tables")
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/tables.txt");
    let want = std::fs::read_to_string(&golden).unwrap();
    let got = String::from_utf8(out.stdout).unwrap();
    if got != want {
        let line = got
            .lines()
            .zip(want.lines())
            .position(|(g, w)| g != w)
            .unwrap_or_else(|| got.lines().count().min(want.lines().count()));
        panic!(
            "tables output differs from {} at line {}:\n  got:  {:?}\n  want: {:?}",
            golden.display(),
            line + 1,
            got.lines().nth(line),
            want.lines().nth(line)
        );
    }
}

/// Named experiments print exactly their own reports, in the order asked
/// for; an unknown name is a usage error that lists the known ones.
#[test]
fn tables_prints_the_named_experiments_only() {
    use bench::experiments::{render_table4, render_table5, table4, table5};
    let out = Command::new(env!("CARGO_BIN_EXE_bench"))
        .args(["--tables", "table5", "table4"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0));
    let report = String::from_utf8(out.stdout).unwrap();
    let body = format!(
        "{}\n{}\n",
        render_table5(&table5()),
        render_table4(&table4())
    );
    assert!(report.ends_with(&body), "{report}");
    assert_eq!(report.lines().count(), body.lines().count() + 3);

    let out = Command::new(env!("CARGO_BIN_EXE_bench"))
        .args(["--tables", "table4", "nope"])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("unknown experiment `nope`; known: table1, figure1,"));
}
