//! The `daemon-jobs` workload: `nachos-sweepd` as shipped, serving one
//! closed-loop client.
//!
//! The daemon starts with only its required flags on a fresh state root.
//! One client holds one connection and, per job, sends `submit` (the
//! default 4-variant matrix at 8 invocations on 1 thread, one Table II
//! workload picked by `filter`, names in seeded order), then `watch`
//! until the job is terminal, then `fetch`. A job fails when it is
//! rejected, does not settle, reports mismatches or degraded cells, or
//! its fetched report differs byte for byte from an in-process
//! `run_sweep` of the same resolved spec.

use crate::inputs::{submission_order, Rng};
use crate::replay::facts_of;
use crate::stats::{beyond, median, quantile};
use crate::trace::{self, Tracer};
use crate::{peak_rss_mib, Outcome, RunArgs};
use nachos::json::escape;
use nachos::sweep::daemon::{JobStatus, MatrixSpec};
use nachos::sweep::journal::{parse_json, Journal, Json, RunRecord};
use nachos::sweep::{run_sweep, SweepConfig, SweepJob};
use std::collections::BTreeMap;
use std::fs::{self, File};
use std::io::{self, BufRead as _, BufReader, Write as _};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Invocations per cell of a submitted job.
const INVOCATIONS: u64 = 8;
/// Fewest jobs a run makes, so that at least ten latency samples lie
/// beyond the 90th percentile.
const MIN_JOBS: usize = 110;
/// A run stops making jobs after this long, whatever `MIN_JOBS` says.
const MAX_LOOP: Duration = Duration::from_secs(120);
/// Times the set-up is repeated; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// `nachos-sweepd`'s default poll period (`--poll-ms`).
const POLL: Duration = Duration::from_millis(25);
/// How long to wait for the daemon to answer its first `ping` or to
/// exit after `shutdown`.
const DAEMON_WAIT: Duration = Duration::from_secs(30);

/// One Table II workload as a job: its spec and what the daemon must
/// return for it.
struct Expected {
    name: &'static str,
    spec: String,
    jobs: Vec<SweepJob>,
    cfg: SweepConfig,
    report: String,
    events: u64,
    cells: u64,
}

fn expected(name: &'static str) -> Result<Expected, String> {
    let spec = format!(
        "{{\"invocations\": {INVOCATIONS}, \"threads\": 1, \"filter\": \"{}\"}}",
        escape(name)
    );
    let matrix = parse_json(&spec)
        .as_ref()
        .and_then(MatrixSpec::from_json)
        .ok_or_else(|| format!("{name}: spec {spec} does not parse"))?;
    let (jobs, cfg) = nachos_bench::matrix::resolve(&matrix)?;
    if jobs.len() != 1 {
        return Err(format!("{name}: filter selects {} workloads", jobs.len()));
    }
    let sweep = run_sweep(&jobs, &cfg);
    let facts = facts_of(&sweep);
    if !facts.iter().flatten().all(|f| f.ok) {
        return Err(format!(
            "{name}: the in-process sweep does not match the reference"
        ));
    }
    Ok(Expected {
        name,
        spec,
        report: sweep.to_json(),
        events: facts.iter().flatten().map(|f| f.queue_events).sum(),
        cells: facts.iter().map(Vec::len).sum::<usize>() as u64,
        jobs,
        cfg,
    })
}

/// One line-delimited JSON connection.
struct Conn {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Conn {
    fn open(socket: &Path) -> io::Result<Conn> {
        let s = UnixStream::connect(socket)?;
        s.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Conn {
            reader: BufReader::new(s.try_clone()?),
            writer: s,
        })
    }

    fn send(&mut self, cmd: &str, rest: &str) -> io::Result<()> {
        let line = format!("{{\"jobs\": \"nachos-jobs-v1\", \"cmd\": \"{cmd}\"{rest}}}\n");
        self.writer.write_all(line.as_bytes())
    }

    fn recv(&mut self) -> io::Result<Json> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "daemon closed the connection",
            ));
        }
        parse_json(line.trim())
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "response is not JSON"))
    }

    fn request(&mut self, cmd: &str, rest: &str) -> io::Result<Json> {
        self.send(cmd, rest)?;
        self.recv()
    }
}

fn is_ok(r: &Json) -> bool {
    matches!(r.get("ok"), Some(Json::Bool(true)))
}

fn count(r: &Json, key: &str) -> u64 {
    r.get(key).and_then(Json::as_u64).unwrap_or(u64::MAX)
}

/// A running `nachos-sweepd`; dropped, it is killed and reaped.
struct Server {
    child: Child,
    dir: PathBuf,
}

impl Server {
    /// Starts the daemon in `dir` (socket `d.sock`, state root `state`)
    /// and waits until it answers `ping`.
    fn start(sweepd: &Path, dir: &Path) -> Result<Server, String> {
        fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let log = File::create(dir.join("sweepd.log")).map_err(|e| format!("daemon log: {e}"))?;
        let log2 = log.try_clone().map_err(|e| format!("daemon log: {e}"))?;
        let child = Command::new(sweepd)
            .args(["--socket", "d.sock", "--root", "state"])
            .current_dir(dir)
            .stdin(Stdio::null())
            .stdout(log)
            .stderr(log2)
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", sweepd.display()))?;
        let mut server = Server {
            child,
            dir: dir.to_owned(),
        };
        let deadline = Instant::now() + DAEMON_WAIT;
        loop {
            let pong = Conn::open(&server.socket()).and_then(|mut c| c.request("ping", ""));
            if pong.as_ref().is_ok_and(is_ok) {
                return Ok(server);
            }
            if let Ok(Some(status)) = server.child.try_wait() {
                return Err(format!("nachos-sweepd exited during start-up: {status}"));
            }
            if Instant::now() > deadline {
                return Err("nachos-sweepd did not answer ping".to_owned());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    fn socket(&self) -> PathBuf {
        self.dir.join("d.sock")
    }

    fn state(&self) -> PathBuf {
        self.dir.join("state")
    }

    fn peak_rss_mib(&self) -> Option<f64> {
        peak_rss_mib(&self.child.id().to_string())
    }

    /// Asks the daemon to shut down and waits for it to exit.
    fn stop(mut self) -> Result<(), String> {
        let asked = Conn::open(&self.socket()).and_then(|mut c| c.request("shutdown", ""));
        let deadline = Instant::now() + DAEMON_WAIT;
        while asked.is_ok() && Instant::now() < deadline {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("nachos-sweepd exited with {status}")),
                _ => std::thread::sleep(Duration::from_millis(2)),
            }
        }
        Err("nachos-sweepd did not shut down".to_owned())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if !matches!(self.child.try_wait(), Ok(Some(_))) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// What one job measured.
struct Job {
    id: u64,
    ok: bool,
    latency_ms: f64,
    report_bytes: usize,
}

/// Submits, watches and fetches one job; spans go to `t`. The `watch`
/// is sent `watch_after` the submit answer: the daemon answers a watch
/// on a poll grid anchored at the request, so watching at once would
/// quantize every latency to a multiple of the poll and make its
/// percentiles jump between multiples; a seeded offset within one poll
/// samples the grid's phase instead.
fn run_job(
    conn: &mut Conn,
    exp: &Expected,
    watch_after: Duration,
    t: &mut Tracer,
) -> io::Result<Job> {
    let t0 = Instant::now();
    t.enter("daemon.job");
    let submitted = t.span("daemon.submit", || {
        conn.request("submit", &format!(", \"spec\": {}", exp.spec))
    })?;
    let mut job = Job {
        id: count(&submitted, "job"),
        ok: false,
        latency_ms: 0.0,
        report_bytes: 0,
    };
    if !is_ok(&submitted) {
        t.exit();
        job.latency_ms = t0.elapsed().as_secs_f64() * 1e3;
        return Ok(job);
    }
    t.enter("daemon.queue_wait");
    std::thread::sleep(watch_after);
    conn.send("watch", &format!(", \"job\": {}", job.id))?;
    let mut queued = true;
    let last = loop {
        let line = conn.recv()?;
        let state = line
            .get("state")
            .and_then(Json::as_str)
            .map(JobStatus::from_label);
        if queued && state != Some(Some(JobStatus::Queued)) {
            queued = false;
            t.exit();
            t.enter("daemon.run");
        }
        if !is_ok(&line) || state.flatten().is_none_or(JobStatus::is_terminal) {
            break line;
        }
    };
    t.exit();
    let settled = is_ok(&last)
        && last.get("state").and_then(Json::as_str) == Some(JobStatus::Settled.as_str())
        && count(&last, "mismatches") == 0
        && count(&last, "degraded") == 0;
    let fetched = t.span("daemon.fetch", || {
        conn.request("fetch", &format!(", \"job\": {}", job.id))
    })?;
    t.exit();
    job.latency_ms = t0.elapsed().as_secs_f64() * 1e3;
    let report = fetched.get("report").and_then(Json::as_str).unwrap_or("");
    job.report_bytes = report.len();
    job.ok = settled && is_ok(&fetched) && report == exp.report;
    Ok(job)
}

/// Per-job layer samples of a traced run.
#[derive(Default)]
struct Layers {
    ms: BTreeMap<String, Vec<f64>>,
}

impl Layers {
    fn push(&mut self, name: impl Into<String>, ms: f64) {
        self.ms.entry(name.into()).or_default().push(ms);
    }

    fn median(&self, name: &str) -> f64 {
        self.ms.get(name).map_or(0.0, |v| median(v))
    }
}

fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// The client-side layers of a settled job, measured after it: the
/// same cells computed in process, and the job's run journal resumed
/// from a copy and re-appended record by record. Returns `false` when
/// any result differs from what the daemon produced.
fn measure_after(
    server: &Server,
    exp: &Expected,
    job: &Job,
    scratch: &Path,
    layers: &mut Layers,
) -> Result<bool, String> {
    let t0 = Instant::now();
    let report = run_sweep(&exp.jobs, &exp.cfg).to_json();
    layers.push("daemon.compute", ms_since(t0));
    let mut same = report == exp.report;

    let runs = server.state().join(format!("job-{:04}.runs.jsonl", job.id));
    let copy = scratch.join("copy.runs.jsonl");
    fs::copy(&runs, &copy).map_err(|e| format!("{}: {e}", runs.display()))?;
    let t0 = Instant::now();
    let resumed = Journal::resume(&copy).map_err(|e| format!("journal resume: {e}"))?;
    layers.push("journal.resume", ms_since(t0));
    same &= resumed.replay_len() as u64 == exp.cells && resumed.skipped() == 0;
    drop(resumed);

    let text = fs::read_to_string(&copy).map_err(|e| format!("journal copy: {e}"))?;
    let appended = scratch.join("append.runs.jsonl");
    let journal = Journal::create(&appended).map_err(|e| format!("journal create: {e}"))?;
    for line in text.lines() {
        let Ok(rec) = RunRecord::parse_line(line) else {
            return Ok(false);
        };
        let t0 = Instant::now();
        journal
            .append(&rec)
            .map_err(|e| format!("journal append: {e}"))?;
        layers.push("journal.append", ms_since(t0));
    }
    drop(journal);
    let rewritten = fs::read_to_string(&appended).map_err(|e| format!("journal read: {e}"))?;
    Ok(same && rewritten == text)
}

/// Runs the `daemon-jobs` workload.
///
/// # Errors
///
/// The daemon failing to start or stop, or the client losing its
/// connection.
pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let names: Vec<&'static str> = nachos_workloads::all().iter().map(|s| s.name).collect();
    let reps = if args.smoke { 1 } else { SETUP_REPS };
    let mut setup_times = Vec::with_capacity(reps);
    let mut ready = None;
    for rep in 0..reps {
        if let Some((server, _)) = ready.take() {
            Server::stop(server)?;
        }
        let t0 = Instant::now();
        let server = Server::start(&args.sweepd, &args.work_dir.join(format!("d{rep}")))?;
        let expected = names
            .iter()
            .map(|&n| expected(n))
            .collect::<Result<Vec<_>, _>>()?;
        setup_times.push(t0.elapsed().as_secs_f64());
        ready = Some((server, expected));
    }
    let (server, expected) = ready.expect("at least one set-up ran");
    let by_name: BTreeMap<&str, &Expected> = expected.iter().map(|e| (e.name, e)).collect();

    let mut o = Outcome::default();
    o.set("setup_s", median(&setup_times));
    let mut conn = Conn::open(&server.socket()).map_err(|e| format!("connect: {e}"))?;
    let mut rng = Rng::new(args.seed);
    let mut phase = Rng::new(!args.seed);
    let mut order: Vec<&str> = Vec::new();
    let (mut lat_ms, mut traced_ms, mut plain_ms) = (vec![], vec![], vec![]);
    let (mut cells, mut events) = (0u64, 0u64);
    let mut layers = Layers::default();
    let mut spans_out = String::new();
    let start = Instant::now();
    let min_jobs = if args.smoke { 4 } else { MIN_JOBS };
    while (lat_ms.len() < min_jobs || start.elapsed() < args.seconds) && start.elapsed() < MAX_LOOP
    {
        if order.is_empty() {
            order = submission_order(&mut rng);
        }
        let exp = by_name[order.pop().expect("refilled above")];
        let traced = args.trace && lat_ms.len() % 2 == 0;
        let mut t = Tracer::new(traced);
        let watch_after = POLL.mul_f64((phase.next_u64() >> 11) as f64 / (1u64 << 53) as f64);
        let job = run_job(&mut conn, exp, watch_after, &mut t)
            .map_err(|e| format!("job {}: {e}", exp.name))?;
        o.attempted += 1;
        lat_ms.push(job.latency_ms);
        cells += exp.cells;
        events += exp.events;
        let mut ok = job.ok;
        if traced {
            traced_ms.push(job.latency_ms);
            trace::write_jsonl(&mut spans_out, traced_ms.len() - 1, t.spans());
            for (name, ms) in trace::self_ms_by_name(t.spans()) {
                // The job span's own self time is what no layer explains.
                let name = if name == "daemon.job" {
                    "sweep.unattributed".to_owned()
                } else {
                    name
                };
                layers.push(name, ms);
            }
            layers.push("daemon.report_bytes", job.report_bytes as f64);
        } else if args.trace {
            plain_ms.push(job.latency_ms);
        }
        // After every job of a traced run, traced or not, so that both
        // kinds meet the daemon at the same point of its poll cycle.
        if args.trace && ok {
            ok = measure_after(&server, exp, &job, &args.work_dir, &mut layers)?;
        }
        o.failed += u64::from(!ok);
    }
    let elapsed = start.elapsed().as_secs_f64();
    let rss = server.peak_rss_mib();
    drop(conn);
    server.stop()?;

    if args.trace {
        trace::write_file(&args.trace_out, &spans_out);
        for name in [
            "daemon.submit",
            "daemon.queue_wait",
            "daemon.run",
            "daemon.fetch",
            "daemon.compute",
            "journal.append",
            "journal.resume",
            "sweep.unattributed",
        ] {
            o.set(&format!("{name}_ms"), layers.median(name));
        }
        o.set("daemon.report_bytes", layers.median("daemon.report_bytes"));
        o.set("trace.wall_ms", median(&traced_ms));
        o.set("trace.overhead_ms", median(&traced_ms) - median(&plain_ms));
        eprintln!(
            "perfbench: {} traced and {} untraced jobs",
            traced_ms.len(),
            plain_ms.len()
        );
    } else {
        o.set("cells_per_s", cells as f64 / elapsed);
        o.set("sim_events_per_s", events as f64 / elapsed);
        o.set("jobs_per_s", lat_ms.len() as f64 / elapsed);
        o.set("job_p50_ms", median(&lat_ms));
        o.set("job_p90_ms", quantile(&lat_ms, 0.9).unwrap_or(0.0));
        o.set("peak_rss_mb", rss.unwrap_or(0.0));
        eprintln!(
            "perfbench: {} jobs in {elapsed:.2} s; job_p90_ms has {} samples beyond it",
            lat_ms.len(),
            beyond(&lat_ms, 0.9)
        );
    }
    Ok(o)
}
