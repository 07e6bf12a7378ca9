//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload of the INDICE benchmark from the root of a checkout
//! and prints, as its last line, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. Lines before it name every metric
//! with its unit, the work counters, digests and, when traced, span
//! totals. Extra options: `--threads <n>` (thread budget, default the
//! available parallelism), `--smoke` (small inputs), `--pin-digest <hex>`
//! (replace the pinned output digest), `--work-dir <dir>` (default
//! `.bench_work/<workload>-<pid>`).

use perfbench::{run, Args, UNLISTED, WORKLOADS};
use std::path::PathBuf;
use std::process::ExitCode;

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 2024;
    let mut seconds: f64 = 30.0;
    let mut trace = false;
    let mut threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut smoke = false;
    let mut pin_digest = None;
    let mut work_dir = None;
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => workload = Some(value("a name")?),
            "--seed" => {
                seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
                }
            }
            "--threads" => {
                threads = value("a number")?
                    .parse()
                    .map_err(|e| format!("--threads: {e}"))?
            }
            "--smoke" => smoke = true,
            "--pin-digest" => pin_digest = Some(value("a digest")?),
            "--work-dir" => work_dir = Some(PathBuf::from(value("a directory")?)),
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    let workload = workload.ok_or(format!(
        "--workload is required ({}, {})",
        WORKLOADS.join(", "),
        UNLISTED.join(", ")
    ))?;
    if threads == 0 || seconds.is_nan() || seconds <= 0.0 {
        return Err("--threads and --seconds must be positive".to_owned());
    }
    let work_dir = work_dir.unwrap_or_else(|| {
        PathBuf::from(".bench_work").join(format!("{workload}-{}", std::process::id()))
    });
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        threads,
        smoke,
        pin_digest,
        work_dir,
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "workload {} seed {} seconds {} trace {} threads {}{}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.threads,
        if args.smoke { " smoke" } else { "" }
    );
    let out = match run(&args) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for note in &out.notes {
        println!("{note}");
    }
    for failure in &out.failures {
        println!("FAILED {failure}");
    }
    for m in &out.metrics {
        println!("metric {} {} {}", m.name, m.value, m.unit);
    }
    if args.trace {
        let path = args
            .work_dir
            .with_file_name(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
        match std::fs::write(&path, &out.spans) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => println!("FAILED writing spans to {}: {e}", path.display()),
        }
    }
    println!("{}", out.result_json());
    ExitCode::SUCCESS
}
