//! The machine-readable sweep: runs the full 27-workload × 4-variant
//! differential matrix on the parallel harness and emits the JSON report
//! (schema `nachos-sweep-v4`).
//!
//! Crash-recoverable orchestration: with `--journal FILE` every completed
//! run is fsynced to an append-only JSONL journal as it finishes, and
//! `--resume` replays completed runs from that journal instead of
//! re-executing them — after a crash or a kill, the resumed sweep
//! produces a report byte-identical to an uninterrupted one. `--max-retries N`
//! retries transient per-run failures (panic/deadlock/error) under
//! deterministically derived seeds before giving up (a run panicking
//! through its whole budget is reported as `quarantined`).
//!
//! `--cache PATH` adds a persistent cross-campaign result cache: one
//! more journal file, keyed by the same content hashes, consulted after
//! the campaign journal. It serves only settled cells and collects the
//! settled cells each campaign executes (`default` picks
//! `$XDG_CACHE_HOME/nachos/sweep.jsonl`).
//!
//! Every cell runs in this process: panics, hangs and deadlines are
//! contained per cell, while an abort, OOM kill or stack overflow ends
//! the campaign — and `--resume` picks it up from the journal.
//!
//! `--deadline-secs N` puts the whole invocation under a wall-clock
//! budget: when it expires, the sweep is cancelled cooperatively through
//! the shared [`CancelToken`], cancelled cells are *not* journaled (a
//! later `--resume` re-executes them), and the process exits with the
//! dedicated code 4 — so CI soak jobs can bound a sweep without ever
//! hanging or corrupting its journal.
//!
//! `--connect PATH` turns this binary into a thin client of a running
//! `nachos-sweepd`: the matrix-defining flags become a `nachos-jobs-v1`
//! submission, the job is watched to a terminal state (transparently
//! reconnecting if the daemon restarts mid-job), and the fetched report
//! — byte-identical to a local run of the same matrix — lands at
//! `--out`. Backpressure is honored: a `queue_full` rejection waits the
//! daemon's `retry_after_ms` hint and resubmits.
//!
//! `--filter SUBSTR` keeps only workloads whose name contains the
//! substring; `--variants a,b,c` selects report columns by label from
//! {opt-lsq, nachos-sw, nachos, nachos-sw-baseline, ideal}.
//!
//! `--poison NAME` injects a deterministic panic-on-event fault into the
//! named workload — every one of its runs panics on every attempt, so
//! with a retry budget it exercises the whole supervision path (retry,
//! quarantine) while the other workloads complete untouched. The CI
//! soak-resume job kills exactly such a sweep mid-flight and diffs the
//! resumed report against a clean one.
//!
//! With `--inject smoke`, runs the fault-injection smoke suite instead:
//! one crafted scenario per fault class, each with a hard per-backend
//! status expectation (unsafe faults detected, benign faults result-
//! neutral, dropped tokens diagnosed as deadlocks). Exits non-zero on any
//! deviation.
//!
//! With `--ideal`, the IDEAL oracle (perfect disambiguation, the paper's
//! Figure 9 upper bound) is appended as a fifth variant column; without
//! it the report is byte-identical to the default four-variant matrix.
//!
//! With `--optimize`, every MDE run compiles through the
//! certificate-carrying `nachos-opt` optimizer (audit-gated by
//! `CertLint`) and reports its rewrite ledger per run; the flag is part
//! of the run fingerprint, so journals and caches never mix optimized
//! and unoptimized results.
//!
//! Reports land atomically (`<out>.tmp` + rename): a crash mid-write
//! never leaves a truncated report behind. Run `sweep --help` for the
//! exit-code contract.

use nachos::json::{parse_json, write_atomic, Json};
use nachos::sweep::daemon::{JobStatus, MatrixSpec};
use nachos::sweep::{journal::Journal, run_sweep_journaled, SweepResult};
use nachos::CancelToken;
use nachos_bench::exitcode::{self, Verdict};
use nachos_bench::matrix;
use std::io::{BufRead as _, BufReader, Write as _};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

const USAGE: &str = "usage: sweep [--threads N] [--invocations N] [--out FILE] [--ideal] \
                     [--optimize] [--journal FILE] [--resume] [--max-retries N] \
                     [--filter SUBSTR] [--variants LIST] [--poison NAME] [--inject smoke] \
                     [--cache PATH|default] [--deadline-secs N] [--connect PATH] \
                     [--stats FILE] [--strict] [--help]";

const HELP: &str = "\
The NACHOS differential sweep harness.

Flags:
  --threads N             worker threads for in-process execution (0 = auto)
  --invocations N         accelerator invocations simulated per run
  --out FILE              write the JSON report atomically (default: stdout)
  --ideal                 append the IDEAL oracle as a fifth variant column
  --optimize              run the certificate-carrying MDE optimizer
                          (nachos-opt) after compilation in every MDE
                          run; each run then reports its rewrite ledger
  --journal FILE          fsync each completed run to an append-only journal
  --resume                replay completed runs from --journal FILE
  --max-retries N         retry budget for transient per-run failures
  --filter SUBSTR         keep only workloads whose name contains SUBSTR
  --variants LIST         comma-separated variant labels to run
  --poison NAME           inject a deterministic panic into workload NAME
  --inject smoke          run the fault-injection smoke suite instead
  --cache PATH            a result cache shared across campaigns: a journal
                          file at PATH that serves settled runs the
                          campaign journal lacks and collects the settled
                          runs this campaign executes; the literal
                          'default' means $XDG_CACHE_HOME/nachos/sweep.jsonl
  --deadline-secs N       wall-clock budget for the whole sweep: on
                          expiry the remaining cells are cancelled
                          cooperatively, the journal stays clean and
                          resumable (cancelled cells are never journaled),
                          and the process exits 4
  --connect PATH          run as a client of the nachos-sweepd listening
                          on the Unix socket PATH: submit this matrix,
                          watch the job to a terminal state (reconnecting
                          across daemon restarts), fetch the report to
                          --out; incompatible with the local
                          orchestration flags (--journal/--resume/
                          --cache/--inject/--stats)
  --stats FILE            after the sweep, re-run the matrix serially with
                          cycle-level telemetry attached and stream the
                          nachos-stats-v1 JSONL (one run block per cell,
                          deterministic matrix order) to FILE; telemetry
                          is observation-only, so the report, journal and
                          cache fingerprints are unchanged
  --strict                degraded cells (quarantined, cancelled, panic,
                          deadlock, error, fault_detected) fail the run
  --help                  this text

Exit codes — each reachable by exactly one condition:
  0  every run completed; without --strict, degraded-but-deterministic
     cells (e.g. a quarantined poison workload) also exit 0
  1  usage error: the invocation itself is wrong (unknown flag, bad
     value, a matrix spec that resolves to nothing)
  2  divergence: at least one run mismatched the reference executor
     (under --inject smoke: at least one expectation deviation)
  3  strict degradation (--strict only): no mismatch, but at least one
     degraded cell
  4  deadline exceeded: the --deadline-secs (or daemon-side) wall-clock
     budget cancelled the sweep before it settled
  5  environment failure: journal/report/cache I/O, or an unreachable
     daemon socket

Cache format and invalidation: the cache is a run journal like
--journal FILE, keyed by the FNV-1a content hash of (region, binding,
variant, fault plan, simulator config), so stale entries are never
served, merely unreachable. Only settled statuses (ok, mismatch,
fault_detected) are served or stored; a corrupt line, or one of an
older journal schema, is skipped and counted on load, and its cell
re-executes once.
";

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("{msg}");
    eprintln!("{USAGE}");
    Verdict::Usage.exit()
}

fn environment_error(msg: &str) -> ExitCode {
    eprintln!("{msg}");
    Verdict::Environment.exit()
}

/// Maps a finished sweep to the documented exit contract.
fn verdict(sweep: &SweepResult, strict: bool, deadline_hit: bool) -> ExitCode {
    let (mismatches, degraded) = sweep.verdict_counts();
    exitcode::classify(mismatches, degraded, strict, deadline_hit).exit()
}

/// The conventional cache file: `$XDG_CACHE_HOME/nachos/sweep.jsonl`,
/// falling back to `~/.cache/nachos/sweep.jsonl`, falling back to
/// `nachos-sweep-cache.jsonl` under the system temp dir when no home is
/// known (sandboxed CI).
fn default_cache_path() -> PathBuf {
    let var = |name| std::env::var_os(name).filter(|v| !v.is_empty());
    if let Some(xdg) = var("XDG_CACHE_HOME") {
        return PathBuf::from(xdg).join("nachos").join("sweep.jsonl");
    }
    if let Some(home) = var("HOME") {
        return PathBuf::from(home)
            .join(".cache")
            .join("nachos")
            .join("sweep.jsonl");
    }
    std::env::temp_dir().join("nachos-sweep-cache.jsonl")
}

/// Opens the `--journal` or `--cache` store (`None` when the flag is
/// absent): `resume` keeps its records, otherwise it starts empty. A
/// non-empty load is reported; an I/O failure maps to the environment
/// exit code.
fn open_store(what: &str, path: Option<&Path>, resume: bool) -> Result<Option<Journal>, ExitCode> {
    let Some(path) = path else {
        return Ok(None);
    };
    let opened = if resume {
        Journal::resume(path)
    } else {
        Journal::create(path)
    };
    let j = opened
        .map_err(|e| environment_error(&format!("cannot open {what} {}: {e}", path.display())))?;
    if j.replay_len() > 0 || j.skipped() > 0 {
        eprintln!(
            "{what} {}: {} completed runs loaded, {} unreadable lines skipped ({} corrupt)",
            path.display(),
            j.replay_len(),
            j.skipped(),
            j.corrupt(),
        );
    }
    Ok(Some(j))
}

#[allow(clippy::too_many_lines)]
fn main() -> ExitCode {
    let mut threads = 0usize;
    let mut invocations = nachos_bench::DEFAULT_INVOCATIONS;
    let mut out: Option<String> = None;
    let mut inject: Option<String> = None;
    let mut ideal = false;
    let mut optimize = false;
    let mut journal_path: Option<PathBuf> = None;
    let mut resume = false;
    let mut max_retries = 0u32;
    let mut filter: Option<String> = None;
    let mut variant_list: Option<String> = None;
    let mut poison: Option<String> = None;
    let mut cache_arg: Option<String> = None;
    let mut deadline_secs = 0u64;
    let mut connect: Option<String> = None;
    let mut stats_path: Option<String> = None;
    let mut strict = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--help" => {
                print!("{HELP}");
                return ExitCode::SUCCESS;
            }
            "--ideal" => {
                ideal = true;
                continue;
            }
            "--optimize" => {
                optimize = true;
                continue;
            }
            "--resume" => {
                resume = true;
                continue;
            }
            "--strict" => {
                strict = true;
                continue;
            }
            _ => {}
        }
        let Some(value) = (match a.as_str() {
            "--threads" | "--invocations" | "--out" | "--inject" | "--journal"
            | "--max-retries" | "--filter" | "--variants" | "--poison" | "--cache"
            | "--deadline-secs" | "--connect" | "--stats" => args.next(),
            other => return usage_error(&format!("unknown argument: {other}")),
        }) else {
            return usage_error(&format!("{a} requires a value"));
        };
        match a.as_str() {
            "--threads" => match value.parse() {
                Ok(n) => threads = n,
                Err(_) => return usage_error(&format!("--threads takes a count, got {value:?}")),
            },
            "--invocations" => match value.parse() {
                Ok(n) => invocations = n,
                Err(_) => {
                    return usage_error(&format!("--invocations takes a count, got {value:?}"))
                }
            },
            "--max-retries" => match value.parse() {
                Ok(n) => max_retries = n,
                Err(_) => {
                    return usage_error(&format!("--max-retries takes a count, got {value:?}"))
                }
            },
            "--deadline-secs" => match value.parse() {
                Ok(s) => deadline_secs = s,
                Err(_) => {
                    return usage_error(&format!("--deadline-secs takes seconds, got {value:?}"))
                }
            },
            "--inject" => inject = Some(value),
            "--journal" => journal_path = Some(value.into()),
            "--filter" => filter = Some(value),
            "--variants" => variant_list = Some(value),
            "--poison" => poison = Some(value),
            "--cache" => cache_arg = Some(value),
            "--connect" => connect = Some(value),
            "--stats" => stats_path = Some(value),
            _ => out = Some(value),
        }
    }
    if resume && journal_path.is_none() {
        return usage_error("--resume requires --journal FILE");
    }
    let cache_path = cache_arg.map(|arg| {
        if arg == "default" {
            default_cache_path()
        } else {
            PathBuf::from(arg)
        }
    });
    if cache_path.is_some() && cache_path == journal_path {
        return usage_error("--cache and --journal must name different files");
    }
    if stats_path.is_some() && inject.is_some() {
        return usage_error("--stats applies to the standard sweep");
    }
    if connect.is_some()
        && (journal_path.is_some()
            || resume
            || cache_path.is_some()
            || inject.is_some()
            || stats_path.is_some())
    {
        return usage_error(
            "--connect is the client side: orchestration (--journal/--resume/\
             --cache/--inject/--stats) lives in the daemon",
        );
    }

    // The submitted (or locally-run) matrix, as data. One resolver —
    // `nachos_bench::matrix::resolve` — interprets it on both sides of
    // the socket, which is what keeps daemon-fetched reports
    // byte-identical to local runs.
    let spec = MatrixSpec {
        invocations,
        threads,
        ideal,
        optimize,
        max_retries,
        filter,
        variants: matrix::parse_variants(variant_list.as_deref()),
        poison,
        deadline_secs,
        watchdog: None,
    };

    if let Some(sock) = connect {
        return run_client(&sock, &spec, out.as_deref(), strict);
    }

    // The wall-clock deadline: one shared token, cancelled by a
    // detached timer thread.
    let deadline_token = (deadline_secs > 0 && inject.is_none()).then(|| {
        let token = CancelToken::new();
        let timer = token.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_secs(deadline_secs));
            timer.cancel();
        });
        token
    });

    let (json, summary, code) = match inject.as_deref() {
        Some("smoke") if ideal => {
            return usage_error("--ideal applies to the standard sweep, not --inject smoke")
        }
        Some("smoke") if optimize => {
            return usage_error("--optimize applies to the standard sweep, not --inject smoke")
        }
        Some("smoke") => {
            let (sweep, failures) = nachos_bench::run_fault_smoke(threads);
            for f in &failures {
                eprintln!("SMOKE DEVIATION: {f}");
            }
            let statuses: Vec<String> = sweep
                .statuses()
                .iter()
                .map(|(job, variant, status)| format!("{job} [{variant}] {status}"))
                .collect();
            let code = if failures.is_empty() {
                Verdict::Success.exit()
            } else {
                Verdict::Divergence.exit()
            };
            (
                sweep.to_json(),
                format!(
                    "fault-injection smoke: {} runs, {} deviations\n{}",
                    statuses.len(),
                    failures.len(),
                    statuses.join("\n"),
                ),
                code,
            )
        }
        Some(other) => return usage_error(&format!("--inject knows 'smoke', got {other:?}")),
        None => {
            let (jobs, mut cfg) = match matrix::resolve(&spec) {
                Ok(r) => r,
                Err(e) => return usage_error(&e),
            };
            if let Some(token) = &deadline_token {
                cfg.sim.cancel = Some(token.clone());
            }
            let journal = match open_store("journal", journal_path.as_deref(), resume) {
                Ok(j) => j,
                Err(code) => return code,
            };
            // The cache outlives campaigns: its directory is created on
            // first use, and it is always resumed, never truncated.
            if let Some(dir) = cache_path.as_deref().and_then(Path::parent) {
                let _ = std::fs::create_dir_all(dir);
            }
            let cache = match open_store("cache", cache_path.as_deref(), true) {
                Ok(c) => c,
                Err(code) => return code,
            };
            let (sweep, stats) = run_sweep_journaled(&jobs, &cfg, journal.as_ref(), cache.as_ref());
            if !sweep.all_match() {
                eprintln!("DIVERGENCE: {:?}", sweep.mismatches());
            }
            if journal.is_some() || cache.is_some() {
                eprintln!(
                    "orchestration: {} runs replayed from the journal, {} executed, {} journal errors",
                    stats.replayed, stats.executed, stats.journal_errors,
                );
            }
            if let Some(c) = &cache {
                eprintln!(
                    "cache: {} hits, {} misses, {} corrupt lines skipped, {} stored",
                    stats.cache_hits,
                    stats.cache_misses,
                    c.corrupt(),
                    stats.cache_stored,
                );
            }
            let summary = format!(
                "{} jobs x {} variants",
                sweep.jobs.len(),
                sweep.variants.len()
            );
            let deadline_hit = deadline_token
                .as_ref()
                .is_some_and(CancelToken::is_cancelled);
            if deadline_hit {
                eprintln!("DEADLINE: wall-clock budget of {deadline_secs}s exhausted");
            }
            (
                sweep.to_json(),
                summary,
                verdict(&sweep, strict, deadline_hit),
            )
        }
    };

    if let Some(path) = &stats_path {
        // The telemetry pass re-executes the matrix serially so the
        // stream order is deterministic; the sweep report above is
        // untouched (telemetry is observation-only).
        let serial = MatrixSpec {
            threads: 1,
            ..spec.clone()
        };
        let Ok((jobs, cfg)) = matrix::resolve(&serial) else {
            return usage_error("--stats could not re-resolve the matrix");
        };
        match nachos_bench::stats::write_stats_stream(path, &jobs, &cfg) {
            Ok(n) => eprintln!("stats stream: {n} runs written to {path}"),
            Err(e) => return environment_error(&e.to_string()),
        }
    }

    match out {
        Some(path) => {
            if let Err(e) = write_atomic(Path::new(&path), &json) {
                return environment_error(&format!("cannot write report {path}: {e}"));
            }
            eprintln!("wrote {summary} to {path}");
        }
        None => {
            print!("{json}");
            eprintln!("{summary}");
        }
    }
    code
}

// ---------------------------------------------------------------------
// Client mode (--connect)
// ---------------------------------------------------------------------

fn env_ms(name: &str, default: u64) -> Duration {
    Duration::from_millis(
        std::env::var(name)
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(default),
    )
}

/// Connects within a wall-clock budget, retrying while the socket is
/// absent or refusing (a daemon restart leaves both windows open).
fn connect_within(sock: &str, budget: Duration) -> std::io::Result<UnixStream> {
    let deadline = Instant::now() + budget;
    loop {
        match UnixStream::connect(sock) {
            Ok(s) => return Ok(s),
            Err(e) if Instant::now() >= deadline => return Err(e),
            Err(_) => std::thread::sleep(Duration::from_millis(100)),
        }
    }
}

/// One request, one response line, on a fresh connection.
fn roundtrip(sock: &str, request: &str, budget: Duration) -> std::io::Result<Json> {
    let stream = connect_within(sock, budget)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut out = stream;
    out.write_all(request.as_bytes())?;
    out.write_all(b"\n")?;
    let mut line = String::new();
    reader.read_line(&mut line)?;
    parse_json(line.trim()).ok_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "daemon sent an unparseable response",
        )
    })
}

/// The `--connect` client: submit (honoring backpressure), watch to a
/// terminal state across daemon restarts, fetch the report, and map the
/// terminal state onto the exit-code contract.
#[allow(clippy::too_many_lines)]
fn run_client(sock: &str, spec: &MatrixSpec, out: Option<&str>, strict: bool) -> ExitCode {
    // Budgets are env-overridable so soak jobs can bound the client
    // without patching it: NACHOS_CONNECT_TIMEOUT_MS gates the first
    // contact, NACHOS_RECONNECT_TIMEOUT_MS every later reconnect (the
    // daemon may be mid-restart after a kill).
    let connect_budget = env_ms("NACHOS_CONNECT_TIMEOUT_MS", 15_000);
    let reconnect_budget = env_ms("NACHOS_RECONNECT_TIMEOUT_MS", 120_000);

    // Submit, resubmitting on queue_full after the daemon's own hint.
    let submit = format!(
        "{{\"jobs\": \"nachos-jobs-v1\", \"cmd\": \"submit\", \"spec\": {}}}",
        spec.to_json()
    );
    let mut budget = connect_budget;
    let job = loop {
        let resp = match roundtrip(sock, &submit, budget) {
            Ok(r) => r,
            Err(e) => return environment_error(&format!("cannot reach daemon at {sock}: {e}")),
        };
        if resp.get("ok") == Some(&Json::Bool(true)) {
            match resp.get("job").and_then(Json::as_u64) {
                Some(id) => break id,
                None => return environment_error("daemon accepted the job but sent no id"),
            }
        }
        match resp.get("error").and_then(Json::as_str) {
            Some("queue_full") => {
                let hint = resp
                    .get("retry_after_ms")
                    .and_then(Json::as_u64)
                    .unwrap_or(500);
                eprintln!("daemon queue full; retrying in {hint}ms");
                std::thread::sleep(Duration::from_millis(hint.min(5_000)));
                budget = reconnect_budget;
            }
            Some("bad_spec") => {
                return usage_error(
                    resp.get("detail")
                        .and_then(Json::as_str)
                        .unwrap_or("daemon rejected the matrix spec"),
                )
            }
            Some(other) => return environment_error(&format!("daemon refused the job: {other}")),
            None => return environment_error("daemon sent a malformed rejection"),
        }
    };
    eprintln!("submitted as job {job} on {sock}");

    // Watch until terminal. A dropped connection (daemon killed or
    // restarting) is survivable: reconnect and re-watch — the job's
    // durable journal means its id and state outlive the process.
    let watch = format!("{{\"jobs\": \"nachos-jobs-v1\", \"cmd\": \"watch\", \"job\": {job}}}");
    let mut last_state: Option<String> = None;
    let terminal = 'outer: loop {
        let stream = match connect_within(sock, reconnect_budget) {
            Ok(s) => s,
            Err(e) => return environment_error(&format!("daemon never came back: {e}")),
        };
        let Ok(read_half) = stream.try_clone() else {
            continue;
        };
        let mut reader = BufReader::new(read_half);
        let mut w = stream;
        if w.write_all(watch.as_bytes()).is_err() || w.write_all(b"\n").is_err() {
            continue;
        }
        loop {
            let mut line = String::new();
            match reader.read_line(&mut line) {
                Ok(0) | Err(_) => {
                    eprintln!("daemon connection lost; reconnecting");
                    break;
                }
                Ok(_) => {}
            }
            let Some(resp) = parse_json(line.trim()) else {
                continue;
            };
            if resp.get("ok") != Some(&Json::Bool(true)) {
                return environment_error(&format!("watch failed: {}", line.trim()));
            }
            let Some(state) = resp.get("state").and_then(Json::as_str) else {
                continue;
            };
            if last_state.as_deref() != Some(state) {
                eprintln!("job {job}: {state}");
                last_state = Some(state.to_owned());
            }
            let Some(status) = JobStatus::from_label(state) else {
                continue;
            };
            if status.is_terminal() {
                break 'outer (status, resp);
            }
        }
    };

    let (status, snap) = terminal;
    let detail = snap
        .get("detail")
        .and_then(Json::as_str)
        .unwrap_or("")
        .to_owned();
    match status {
        JobStatus::Settled => {}
        JobStatus::DeadlineExceeded => {
            eprintln!("job {job} exceeded its deadline: {detail}");
            return Verdict::DeadlineExceeded.exit();
        }
        other => {
            return environment_error(&format!("job {job} ended {other}: {detail}"));
        }
    }

    // Fetch the report — byte-identical to a local run of the same
    // matrix, because both sides resolve the same spec through the same
    // resolver and the same journaled harness.
    let fetch = format!("{{\"jobs\": \"nachos-jobs-v1\", \"cmd\": \"fetch\", \"job\": {job}}}");
    let resp = match roundtrip(sock, &fetch, reconnect_budget) {
        Ok(r) => r,
        Err(e) => return environment_error(&format!("cannot fetch report: {e}")),
    };
    if resp.get("ok") != Some(&Json::Bool(true)) {
        return environment_error(&format!("daemon would not serve the report: {resp:?}"));
    }
    let Some(report) = resp.get("report").and_then(Json::as_str) else {
        return environment_error("fetch response carries no report");
    };
    let mismatches = resp.get("mismatches").and_then(Json::as_u64).unwrap_or(0);
    let degraded = resp.get("degraded").and_then(Json::as_u64).unwrap_or(0);
    match out {
        Some(path) => {
            if let Err(e) = write_atomic(Path::new(&path), report) {
                return environment_error(&format!("cannot write report {path}: {e}"));
            }
            eprintln!("wrote job {job} report to {path}");
        }
        None => print!("{report}"),
    }
    if mismatches > 0 {
        eprintln!("DIVERGENCE: {mismatches} mismatched cells");
    }
    exitcode::classify(mismatches, degraded, strict, false).exit()
}
