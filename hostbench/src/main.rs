//! `hostbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload for one measurement window and prints every metric,
//! then the result as a JSON object on the last line of standard output.
//! A traced run also writes its spans to `out/` beside this crate's
//! manifest.

use std::process::ExitCode;
use std::time::Duration;

use hostbench::run::{run, Config};
use hostbench::workload::Workload;

/// Longest a whole run may take before the watchdog ends it.
const RUN_LIMIT: Duration = Duration::from_secs(170);

fn usage(msg: &str) -> ExitCode {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    eprintln!(
        "hostbench: {msg}\nusage: hostbench --workload <{}> --seed <n> --seconds <1..=60> --trace <0|1>",
        names.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    for pair in args.chunks(2) {
        let [flag, value] = pair else {
            return usage("every flag takes a value");
        };
        match flag.as_str() {
            "--workload" => workload = Workload::parse(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<u64>().ok().filter(|s| (1..=60).contains(s)),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            other => return usage(&format!("unknown flag `{other}`")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage("missing or invalid --workload, --seed, --seconds or --trace");
    };

    // A stalled run must end instead of hanging: the watchdog exits the
    // process, without a result, once the run has overrun its limit.
    std::thread::spawn(|| {
        std::thread::sleep(RUN_LIMIT);
        eprintln!("hostbench: run exceeded {RUN_LIMIT:?}; giving up");
        std::process::exit(3);
    });

    let cfg = Config {
        workload,
        seed,
        window: Duration::from_secs(seconds),
        trace,
    };
    let report = run(&cfg);
    if trace {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let file = dir.join(format!("spans-{}-seed{seed}.jsonl", workload.name()));
        if let Err(e) =
            std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&file, &report.spans))
        {
            eprintln!("hostbench: could not write {}: {e}", file.display());
        }
    }
    print!("{}", hostbench::render(&report));
    ExitCode::SUCCESS
}
