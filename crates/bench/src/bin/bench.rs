//! `bench` — prints the paper's tables and figures, runs the gated suites
//! of [`bench::suite::SUITES`] and persists their measured trajectories
//! (see `usage` for every verb).
//!
//! `bench --tables [NAME...]` prints the reproduction report, every
//! experiment of [`bench::experiments::REPORTS`] or the named ones; it
//! reads the virtual clock only, so its output is the same on every host.
//! Plain `bench [--calls N] [--threads K]` runs the host-parallel Figure-2
//! sweep, whose gates always set the exit code; `bench --NAME [--check]`
//! runs one suite, and with `--check` its gates set the exit code. A run
//! whose gates all pass appends one entry, keyed by git revision, to its
//! `BENCH_<suite>.json` at the repo root; a run with a failed gate, and a
//! fault-injected or forced-off probe, is never persisted.
//! `bench --validate FILE...` checks trajectory files, and `bench --all`
//! prints the report, then runs and checks every suite but the sweep.

use std::num::NonZeroUsize;
use std::path::PathBuf;
use std::process::ExitCode;

use bench::experiments::REPORTS;
use bench::json::Json;
use bench::rr;
use bench::suite::{self, Opts, Suite};
use workload::site::SiteSpec;

fn usage() -> ! {
    eprintln!(
        "usage: bench [--calls N] [--threads K]\n       \
         bench --tables [NAME...]\n       \
         bench --phases [--check]\n       \
         bench --stubs [--check]\n       \
         bench --bulk [--check]\n       \
         bench --batch [--check]\n       \
         bench --tail [--check] [--tail-fault-us N] [--tail-cpus K]\n             \
         [--tail-site ci|full] [--tail-force-no-cache]\n       \
         bench --all\n       \
         bench --record FILE [--scenario chaos|fig2|batch|site] [--seed N] [--rcalls N]\n       \
         bench --replay FILE [--check]\n       \
         bench --rr-overhead [--rcalls N] [--check]\n       \
         bench --shrink [--seed N] [--rcalls N]\n       \
         bench --validate FILE..."
    );
    std::process::exit(2);
}

fn exit(ok: bool) -> ExitCode {
    ExitCode::from(u8::from(!ok))
}

/// The value after a flag, parsed, or a usage error.
fn value<T: std::str::FromStr>(arg: Option<&String>) -> T {
    arg.and_then(|v| v.parse().ok()).unwrap_or_else(|| usage())
}

fn git_output(args: &[&str]) -> Option<String> {
    let out = std::process::Command::new("git").args(args).output().ok()?;
    let text = String::from_utf8(out.stdout).ok()?.trim().to_string();
    (out.status.success() && !text.is_empty()).then_some(text)
}

/// The repo root (so the BENCH files land in a fixed place no matter the
/// working directory), falling back to `.` outside a checkout.
fn repo_root() -> PathBuf {
    git_output(&["rev-parse", "--show-toplevel"])
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("."))
}

/// Runs one registered suite; with `check`, the exit code reflects its
/// gates. An unreadable trajectory file fails the run either way.
fn run_suite(name: &str, opts: &Opts, check: bool) -> bool {
    let suite = suite::SUITES.iter().find(|s| s.name == name);
    let suite = suite.expect("registered suite");
    let rev = git_output(&["rev-parse", "--short=12", "HEAD"]);
    match suite::run_suite(
        suite,
        opts,
        &repo_root(),
        rev.as_deref().unwrap_or("unknown"),
    ) {
        Ok(passed) => passed || !check,
        Err(e) => {
            eprintln!("bench: {e}");
            false
        }
    }
}

/// Prints the reproduction report: the experiments `names` selects, or
/// all of them for none. Returns false if a name is unknown.
fn print_tables(names: &[String]) -> bool {
    println!("Lightweight Remote Procedure Call (SOSP 1989) — reproduction report");
    println!("====================================================================\n");
    let selected: Vec<&str> = if names.is_empty() {
        REPORTS.iter().map(|r| r.0).collect()
    } else {
        names.iter().map(String::as_str).collect()
    };
    let mut ok = true;
    for name in selected {
        match REPORTS.iter().find(|r| r.0 == name) {
            Some((_, report)) => println!("{}", report()),
            None => {
                let known: Vec<&str> = REPORTS.iter().map(|r| r.0).collect();
                eprintln!("unknown experiment `{name}`; known: {}", known.join(", "));
                ok = false;
            }
        }
    }
    ok
}

/// Prints the whole report, runs every suite but the default sweep with
/// `--check`, then validates every trajectory file present at the repo
/// root. The report runs as a child `bench --tables`: run in this
/// process, it left state behind (most likely in the heap: only the
/// stub classes whose cycles allocate slowed) that slowed the stub
/// suite's compiled BigIn and BigInOut cycles by about 10 % and failed
/// their 2x gate in most runs.
fn run_all() -> bool {
    let mut ok = true;
    let mut gate = |name: &str, passed: bool| {
        println!("\n== {name}: {} ==", if passed { "ok" } else { "FAILED" });
        ok &= passed;
    };
    let report = std::env::current_exe()
        .and_then(|exe| std::process::Command::new(exe).arg("--tables").status())
        .map_err(|e| eprintln!("bench: cannot run the report: {e}"));
    gate("tables", report.is_ok_and(|s| s.success()));
    for suite in suite::SUITES.iter().filter(|s| s.name != "throughput") {
        gate(suite.name, run_suite(suite.name, &Opts::default(), true));
    }
    let files: Vec<String> = suite::SUITES
        .iter()
        .filter_map(Suite::file)
        .map(|f| repo_root().join(f))
        .filter(|p| p.exists())
        .map(|p| p.display().to_string())
        .collect();
    gate("validate", validate(&files));
    println!("\n== bench --all: {} ==", if ok { "ok" } else { "FAILED" });
    ok
}

/// Silences backtraces from chaos-injected server panics (they are
/// caught and turned into call errors); any other panic still reaches
/// the default hook.
fn quiet_injected_panics() {
    // Force the fault-plane diagnostics hook to install first, so the
    // filter below is outermost and injected panics print nothing at
    // all (neither backtrace nor the seed-reproduction line).
    drop(firefly::fault::FaultPlan::new(
        firefly::fault::FaultConfig {
            dispatch_delay_us: 1,
            ..firefly::fault::FaultConfig::with_seed(0)
        },
    ));
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let payload = info.payload();
        let message = payload.downcast_ref::<&str>().copied();
        let message = message.or_else(|| payload.downcast_ref::<String>().map(String::as_str));
        if !message.is_some_and(|m| m.contains("injected fault")) {
            prev(info);
        }
    }));
}

/// Records a scenario into a replay log file.
fn run_record(path: &str, scenario: rr::ScenarioKind, seed: u64, calls: usize) -> ExitCode {
    quiet_injected_panics();
    let sc = rr::Scenario::new(scenario, seed, calls);
    let rec = rr::record(sc);
    let bytes = rec.log.encode();
    if let Err(e) = std::fs::write(path, &bytes) {
        eprintln!("bench: cannot write {path}: {e}");
        return ExitCode::FAILURE;
    }
    println!(
        "recorded {} (seed {}, {} calls): {} events across {} streams, {} bytes -> {path}",
        sc.kind.name(),
        sc.seed,
        sc.calls,
        rec.log.total_events(),
        rec.log.streams.len(),
        bytes.len()
    );
    println!(
        "  ok {} / err {} / fault events {} / vtime {} ns",
        rec.artifacts.ok, rec.artifacts.err, rec.artifacts.fault_events, rec.artifacts.vtime_ns
    );
    ExitCode::SUCCESS
}

/// Replays a log file; with `check`, exit code reflects byte-identity.
fn run_replay(path: &str, check: bool) -> ExitCode {
    quiet_injected_panics();
    let log = match replay::RecordLog::read_from(std::path::Path::new(path)) {
        Ok(log) => log.map_err(|e| format!("{path}: {e}")),
        Err(e) => Err(format!("cannot read {path}: {e}")),
    };
    let replayed = |log| Ok((rr::replay(&log).map_err(|e| format!("{path}: {e}"))?, log));
    let (report, log) = match log.and_then(replayed) {
        Ok(replayed) => replayed,
        Err(e) => {
            eprintln!("bench: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "replayed {} ({} events): ok {} / err {} / vtime {} ns",
        path,
        log.total_events(),
        report.artifacts.ok,
        report.artifacts.err,
        report.artifacts.vtime_ns
    );
    if let Some(d) = &report.divergence {
        println!("  DIVERGED: {d}");
    }
    if report.unconsumed > 0 {
        println!(
            "  {} logged decisions were never consumed",
            report.unconsumed
        );
    }
    for m in &report.mismatches {
        println!("  artifact mismatch: {m}");
    }
    if report.is_identical() {
        println!("  verdict: byte-identical to the recording");
    }
    exit(report.is_identical() || !check)
}

/// Shrinks the built-in failing chaos schedule for `seed`.
fn run_shrink(seed: u64, calls: usize) -> ExitCode {
    quiet_injected_panics();
    let initial = rr::chaos_fault_config(seed);
    println!("shrinking chaos seed {seed}, {calls} calls, initial {initial:?}");
    match rr::shrink_chaos(seed, &initial, calls, &rr::client_saw_errors) {
        Some(outcome) => {
            println!(
                "minimized to {} calls after {} probe runs:\n  {:?}\n  \
                 replay-verified: {}",
                outcome.calls, outcome.steps, outcome.config, outcome.replay_verified
            );
            if outcome.replay_verified {
                ExitCode::SUCCESS
            } else {
                eprintln!("bench: minimized run failed replay verification");
                ExitCode::FAILURE
            }
        }
        None => {
            eprintln!("bench: the initial schedule does not fail; nothing to shrink");
            ExitCode::FAILURE
        }
    }
}

/// Validates trajectory files, printing every problem found.
fn validate(paths: &[String]) -> bool {
    let mut ok = true;
    for path in paths {
        let problems = match std::fs::read_to_string(path) {
            Err(e) => vec![format!("unreadable: {e}")],
            Ok(text) => match Json::parse(&text) {
                Err(e) => vec![format!("invalid JSON: {e}")],
                Ok(doc) => suite::validate(&doc),
            },
        };
        for p in &problems {
            eprintln!("{path}: {p}");
        }
        if problems.is_empty() {
            println!("{path}: ok");
        }
        ok &= problems.is_empty();
    }
    ok
}

/// Dispatches the verb `verb` with the arguments after it.
fn dispatch(verb: &str, rest: &[String], mut opts: Opts) -> ExitCode {
    let mut args = rest.iter();
    let mut check = false;
    match verb {
        "--phases" | "--stubs" | "--bulk" | "--batch" => {
            check = match rest {
                [] => false,
                [flag] if flag == "--check" => true,
                _ => usage(),
            };
            exit(run_suite(&verb[2..], &opts, check))
        }
        "--tail" => {
            while let Some(arg) = args.next() {
                match arg.as_str() {
                    "--check" => check = true,
                    "--tail-fault-us" => opts.tail.dispatch_delay_us = value(args.next()),
                    "--tail-cpus" => opts.tail.cpus = value::<NonZeroUsize>(args.next()).get(),
                    "--tail-site" => {
                        opts.tail.site = match args.next().map(String::as_str) {
                            Some("ci") => SiteSpec::ci(),
                            Some("full") => SiteSpec::full(),
                            _ => usage(),
                        }
                    }
                    "--tail-force-no-cache" => opts.tail.domain_caching = false,
                    _ => usage(),
                }
            }
            exit(run_suite("tail", &opts, check))
        }
        "--rr-overhead" => {
            while let Some(arg) = args.next() {
                match arg.as_str() {
                    "--check" => check = true,
                    "--rcalls" => opts.rcalls = value(args.next()),
                    _ => usage(),
                }
            }
            exit(run_suite("rr-overhead", &opts, check))
        }
        // An unknown experiment is a usage error.
        "--tables" => ExitCode::from(if print_tables(rest) { 0 } else { 2 }),
        "--all" if rest.is_empty() => exit(run_all()),
        "--record" => {
            let path = args.next().unwrap_or_else(|| usage());
            let (mut scenario, mut seed, mut calls) = (rr::ScenarioKind::Chaos, 1234, 120);
            while let Some(arg) = args.next() {
                match arg.as_str() {
                    "--scenario" => {
                        let kind = args.next().and_then(|v| rr::ScenarioKind::parse(v));
                        scenario = kind.unwrap_or_else(|| usage());
                    }
                    "--seed" => seed = value(args.next()),
                    "--rcalls" => calls = value(args.next()),
                    _ => usage(),
                }
            }
            run_record(path, scenario, seed, calls)
        }
        "--replay" => match rest {
            [path] => run_replay(path, false),
            [path, flag] if flag == "--check" => run_replay(path, true),
            _ => usage(),
        },
        "--shrink" => {
            let (mut seed, mut calls) = (1234, 120);
            while let Some(arg) = args.next() {
                match arg.as_str() {
                    "--seed" => seed = value(args.next()),
                    "--rcalls" => calls = value(args.next()),
                    _ => usage(),
                }
            }
            run_shrink(seed, calls)
        }
        "--validate" if !rest.is_empty() => exit(validate(rest)),
        _ => usage(),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut opts = Opts::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--calls" => opts.calls = value(args.get(i + 1)),
            "--threads" => opts.threads = value(args.get(i + 1)),
            verb => return dispatch(verb, &args[i + 1..], opts),
        }
        i += 2;
    }
    if opts.calls == 0 || opts.threads == 0 {
        usage();
    }
    // The sweep has no `--check` flag: a failed gate fails the run.
    exit(run_suite("throughput", &opts, true))
}
