//! `perfbench --workload NAME --seed N --seconds S --trace 0|1`, run
//! from the root of a checkout (see `run.py`, which builds it).
//!
//! Runs one workload and prints, as the last line of standard output,
//! `{"correct", "attempted", "failed", "metrics"}`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! Exits 2 without a result line when the run cannot be made.

use perfbench::{per_layer, run, RunArgs, END_TO_END};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1";

fn parse(mut argv: impl Iterator<Item = String>) -> Result<RunArgs, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10u64, false);
    while let Some(flag) = argv.next() {
        let value = argv
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))?;
        let number = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, got {v:?}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = number(&value)?,
            "--seconds" => seconds = number(&value)?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload: String = workload.ok_or("--workload is required")?;
    // `run.py` builds both executables into the same directory.
    let sweepd = std::env::current_exe()
        .map_err(|e| format!("cannot locate this executable: {e}"))?
        .with_file_name("nachos-sweepd");
    // Relative to the checkout, which keeps the daemon's socket path short.
    let work_dir = PathBuf::from(format!(
        ".bench_build/perfbench-work/{}",
        std::process::id()
    ));
    let trace_out = PathBuf::from(format!(
        ".bench_build/perfbench-trace/{workload}-seed{seed}.jsonl"
    ));
    Ok(RunArgs {
        workload,
        seed,
        seconds: Duration::from_secs(seconds),
        trace,
        sweepd,
        work_dir,
        trace_out,
        smoke: false,
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(outcome) => {
            let line = if args.trace {
                outcome.to_json(&per_layer())
            } else {
                let names: Vec<_> = END_TO_END.iter().map(|&(n, u)| (n.to_owned(), u)).collect();
                outcome.to_json(&names)
            };
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
