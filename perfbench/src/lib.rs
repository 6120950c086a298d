//! The benchmark of record for the NACHOS reproduction.
//!
//! Three workloads, each generated from one seed, measured in host time:
//!
//! * `table2-sim` — the 27 Table II hottest-path regions × 5 variants at
//!   256 invocations: the cycle-level engine dominates;
//! * `paths-compile` — all 135 regions × 5 variants at one invocation
//!   with the MDE optimizer on: the alias compiler dominates;
//! * `daemon-jobs` — `nachos-sweepd` serving a closed loop of small jobs
//!   over its socket: durable writes, polling and wire JSON dominate.
//!
//! With `--trace 0` a run prints the end-to-end metrics; with
//! `--trace 1` a separate single-threaded traced run prints the
//! per-layer metrics, timed from outside around calls into each layer's
//! public API. See `NOTES.md` for the layer table and the rationale.

#![forbid(unsafe_code)]

mod daemon;
mod inputs;
mod replay;
mod stats;
mod sweeps;
mod trace;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Duration;

/// The workloads, by name.
pub const WORKLOADS: [&str; 3] = ["table2-sim", "paths-compile", "daemon-jobs"];

/// End-to-end metrics `(name, unit)`, printed by every `--trace 0` run.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("cells_per_s", "cells/s"),
    ("sim_events_per_s", "events/s"),
    ("jobs_per_s", "jobs/s"),
    ("job_p50_ms", "ms"),
    ("job_p90_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// The variant columns of the sweep workloads, in matrix order.
pub const VARIANTS: [&str; 5] = [
    "opt-lsq",
    "nachos-sw",
    "nachos",
    "nachos-sw-baseline",
    "ideal",
];

/// Per-layer metrics `(name, unit)`, printed by every `--trace 1` run.
/// A layer a workload does not exercise reads `0`.
#[must_use]
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = Vec::new();
    for v in VARIANTS {
        m.push((format!("engine.{v}_ms"), "ms"));
        m.push((format!("engine.{v}.events"), "count"));
        m.push((format!("engine.{v}.cycles"), "cycles"));
        m.push((format!("engine.{v}.ns_per_event"), "ns"));
    }
    let fixed: [(&str, &'static str); 32] = [
        ("engine.opt-lsq.cam_searches", "count"),
        ("engine.opt-lsq.bloom_hit_ratio", "ratio"),
        ("engine.nachos.may_checks", "count"),
        ("engine.l1_hit_ratio", "ratio"),
        ("reference.execute_ms", "ms"),
        ("alias.compile.full_ms", "ms"),
        ("alias.compile.baseline_ms", "ms"),
        ("alias.optimize_ms", "ms"),
        ("alias.audit_ms", "ms"),
        ("alias.wire_local_deps_ms", "ms"),
        ("alias.may_pairs.full", "count"),
        ("alias.may_pairs.baseline", "count"),
        ("alias.mdes.full", "count"),
        ("alias.mdes.baseline", "count"),
        ("alias.optimize.order_removed", "count"),
        ("alias.optimize.may_coalesced", "count"),
        ("alias.audit.errors", "count"),
        ("workloads.generate_ms", "ms"),
        ("ir.validate_ms", "ms"),
        ("sweep.diffcheck_ms", "ms"),
        ("sweep.report_ms", "ms"),
        ("sweep.unattributed_ms", "ms"),
        ("trace.overhead_ms", "ms"),
        ("trace.wall_ms", "ms"),
        ("daemon.submit_ms", "ms"),
        ("daemon.queue_wait_ms", "ms"),
        ("daemon.run_ms", "ms"),
        ("daemon.fetch_ms", "ms"),
        ("daemon.compute_ms", "ms"),
        ("journal.append_ms", "ms"),
        ("journal.resume_ms", "ms"),
        ("daemon.report_bytes", "bytes"),
    ];
    m.extend(fixed.iter().map(|&(n, u)| (n.to_owned(), u)));
    m
}

/// How one run is configured.
#[derive(Clone, Debug)]
pub struct RunArgs {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measuring time.
    pub seconds: Duration,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// The `nachos-sweepd` executable.
    pub sweepd: PathBuf,
    /// Scratch directory for reports, daemon state and the socket;
    /// relative, so the socket path stays short.
    pub work_dir: PathBuf,
    /// Where the traced run writes its spans.
    pub trace_out: PathBuf,
    /// A short run for tests: one pass, or a handful of jobs, however
    /// many a measurement would need.
    pub smoke: bool,
}

/// The measured result of one run.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed their output check.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: Vec<(String, f64)>,
}

impl Outcome {
    /// Records `value` for metric `name`.
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.push((name.to_owned(), value));
    }

    /// The result line: `correct`, `attempted`, `failed` and every
    /// metric of `names` (absent ones read `0`) with its unit. A
    /// non-finite value makes the run incorrect and reads `0`.
    #[must_use]
    pub fn to_json(&self, names: &[(String, &str)]) -> String {
        let mut finite = true;
        let mut metrics = String::new();
        for (i, (name, unit)) in names.iter().enumerate() {
            let mut v = self
                .metrics
                .iter()
                .find(|(n, _)| n == name)
                .map_or(0.0, |(_, v)| *v);
            if !v.is_finite() {
                finite = false;
                v = 0.0;
            }
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            );
        }
        let correct = finite && self.failed == 0 && self.attempted > 0;
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.attempted, self.failed
        )
    }
}

/// Peak resident set (`VmHWM`) of process `pid` (`"self"` for this
/// one), in MiB.
#[must_use]
pub fn peak_rss_mib(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Runs the configured workload.
///
/// # Errors
///
/// A description of what stopped the run before it could measure
/// (unknown workload, I/O failure, daemon unavailable).
pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    std::fs::create_dir_all(&args.work_dir)
        .map_err(|e| format!("work dir {}: {e}", args.work_dir.display()))?;
    let out = match args.workload.as_str() {
        "table2-sim" => sweeps::run(sweeps::Kind::Table2Sim, args),
        "paths-compile" => sweeps::run(sweeps::Kind::PathsCompile, args),
        "daemon-jobs" => daemon::run(args),
        other => Err(format!(
            "unknown workload {other:?} (expected one of {WORKLOADS:?})"
        )),
    };
    let _ = std::fs::remove_dir_all(&args.work_dir);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_lists_every_metric_with_its_unit() {
        let mut o = Outcome {
            attempted: 3,
            failed: 0,
            ..Outcome::default()
        };
        o.set("a_ms", 1.25);
        let names = vec![("a_ms".to_owned(), "ms"), ("b".to_owned(), "count")];
        let line = o.to_json(&names);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"a_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \"b\": {\"value\": 0, \"unit\": \"count\"}}}"
        );
        o.set("b", f64::NAN);
        assert!(o.to_json(&names).starts_with("{\"correct\": false"));
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let doc = nachos::sweep::journal::parse_json(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(|v| v.as_arr())
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k| {
                        m.get(k)
                            .and_then(|v| v.as_str())
                            .expect("name/unit")
                            .to_owned()
                    };
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let e2e: Vec<_> = END_TO_END
            .iter()
            .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
            .collect();
        assert_eq!(names("end_to_end"), e2e);
        let layers: Vec<_> = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_owned()))
            .collect();
        assert_eq!(names("per_layer"), layers);
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(|v| v.as_arr())
            .expect("workloads")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(|v| v.as_str())
                    .expect("name")
                    .to_owned()
            })
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }
}
