//! A short run of every workload, untraced and traced: zero failed
//! operations, every metric present and finite, and every end-to-end
//! metric non-zero.
//!
//! `daemon-jobs` needs the `nachos-sweepd` executable. It is looked up
//! in `$NACHOS_SWEEPD`, then in `release/` under `$CARGO_TARGET_DIR`,
//! `.bench_build` and `target` of the repository; `python3
//! perfbench/run.py` (or `cargo build --release -p nachos-bench --bin
//! nachos-sweepd` at the repository root) puts it there.

use perfbench::{per_layer, run, RunArgs, END_TO_END};
use std::path::{Path, PathBuf};
use std::time::Duration;

fn sweepd() -> PathBuf {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut candidates: Vec<PathBuf> = Vec::new();
    if let Some(p) = std::env::var_os("NACHOS_SWEEPD") {
        candidates.push(p.into());
    }
    if let Some(dir) = std::env::var_os("CARGO_TARGET_DIR") {
        let dir = PathBuf::from(dir);
        candidates.push(
            if dir.is_absolute() {
                dir
            } else {
                repo.join(dir)
            }
            .join("release/nachos-sweepd"),
        );
    }
    candidates.push(repo.join(".bench_build/release/nachos-sweepd"));
    candidates.push(repo.join("target/release/nachos-sweepd"));
    candidates.into_iter().find(|p| p.is_file()).expect(
        "nachos-sweepd is not built; run `python3 perfbench/run.py` once, or set NACHOS_SWEEPD",
    )
}

fn smoke(workload: &str, trace: bool) {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{workload}-{trace}"));
    let args = RunArgs {
        workload: workload.to_owned(),
        seed: 5,
        seconds: Duration::ZERO,
        trace,
        sweepd: if workload == "daemon-jobs" {
            sweepd()
        } else {
            PathBuf::new()
        },
        work_dir: dir.join("work"),
        trace_out: dir.join("spans.jsonl"),
        smoke: true,
    };
    let out = run(&args).expect("the run completes");
    assert!(out.attempted > 0);
    assert_eq!(out.failed, 0, "{workload}: failed operations");
    let names: Vec<(String, &str)> = if trace {
        per_layer()
    } else {
        END_TO_END.iter().map(|&(n, u)| (n.to_owned(), u)).collect()
    };
    let line = out.to_json(&names);
    assert!(line.starts_with("{\"correct\": true"), "{line}");
    for (name, _) in &names {
        let value = out.metrics.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
        if !trace {
            assert!(
                value.is_some_and(|v| v > 0.0),
                "{workload}: {name} = {value:?}"
            );
        }
        assert!(
            value.is_none_or(f64::is_finite),
            "{workload}: {name} = {value:?}"
        );
    }
    assert!(!args.work_dir.exists(), "the work dir is removed");
    if trace {
        let spans = std::fs::read_to_string(&args.trace_out).expect("spans are written");
        assert!(spans.lines().count() > 1);
    }
    if trace && workload != "daemon-jobs" {
        // One traced pass: its layer self times plus the unattributed
        // rest account for its wall time.
        let get = |n: &str| {
            out.metrics
                .iter()
                .find(|(m, _)| m == n)
                .map_or(0.0, |(_, v)| *v)
        };
        let spans: f64 = names
            .iter()
            .map(|(n, _)| n.as_str())
            .filter(|n| n.ends_with("_ms") && !n.starts_with("trace.") && !n.starts_with("daemon."))
            .filter(|n| !n.starts_with("journal."))
            .map(get)
            .sum();
        let wall = get("trace.wall_ms");
        assert!(
            (spans - wall).abs() < 0.01 * wall,
            "{spans} ms of spans vs {wall} ms wall"
        );
        assert!(
            get("engine.nachos-sw-baseline_ms") > 0.0 && get("alias.compile.baseline_ms") > 0.0
        );
    }
}

#[test]
fn table2_sim() {
    smoke("table2-sim", false);
}

#[test]
fn table2_sim_traced() {
    smoke("table2-sim", true);
}

#[test]
fn paths_compile() {
    smoke("paths-compile", false);
}

#[test]
fn paths_compile_traced() {
    smoke("paths-compile", true);
}

#[test]
fn daemon_jobs() {
    smoke("daemon-jobs", false);
}

#[test]
fn daemon_jobs_traced() {
    smoke("daemon-jobs", true);
}
