//! The two daemon-side lifecycle edges no other test reaches: a job's
//! wall-clock deadline expiring inside the daemon (`running →
//! deadline_exceeded`), and a shutdown requeueing the running job
//! (`running → queued`). Each runs an in-process [`Daemon::serve`] over
//! a real socket, then reopens the same state root to check that the
//! edge was journaled, not just applied in memory.

use std::path::PathBuf;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use nachos::sweep::daemon::{Daemon, DaemonConfig, JobSnapshot, JobStatus, MatrixSpec};
use nachos::sweep::{SweepConfig, SweepJob};
use nachos_workloads::{by_name, generate};

/// Far more invocations than any test waits for: the job only ends
/// when something cancels it.
const ENDLESS: u64 = 200_000_000;

/// Upper bound on every wait below; the edges themselves take about a
/// second.
const BUDGET: Duration = Duration::from_secs(30);

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("nachos-daemon-lifecycle")
        .join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// One gzip job at the spec's invocation count, serial.
fn resolver(spec: &MatrixSpec) -> Result<(Vec<SweepJob>, SweepConfig), String> {
    let w = generate(&by_name("gzip").expect("workload"));
    let jobs = vec![SweepJob::new(w.spec.name, w.region, w.binding)];
    let cfg = SweepConfig::default()
        .with_invocations(spec.invocations)
        .with_threads(1);
    Ok((jobs, cfg))
}

fn serve(cfg: &DaemonConfig) -> (Arc<Daemon>, JoinHandle<std::io::Result<()>>) {
    let daemon = Arc::new(Daemon::open(cfg.clone(), Arc::new(resolver)).expect("open"));
    let server = {
        let daemon = Arc::clone(&daemon);
        std::thread::spawn(move || daemon.serve())
    };
    (daemon, server)
}

/// Polls job `id` until `done` holds, failing after [`BUDGET`].
fn wait_for(daemon: &Daemon, id: u64, done: impl Fn(&JobSnapshot) -> bool) -> JobSnapshot {
    let deadline = Instant::now() + BUDGET;
    loop {
        let snap = daemon.snapshot(id).expect("job exists");
        if done(&snap) {
            return snap;
        }
        assert!(
            Instant::now() < deadline,
            "job {id} stuck at {} after {BUDGET:?}",
            snap.status
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn join_within(server: JoinHandle<std::io::Result<()>>) {
    let deadline = Instant::now() + BUDGET;
    while !server.is_finished() {
        assert!(Instant::now() < deadline, "serve() did not return");
        std::thread::sleep(Duration::from_millis(20));
    }
    server.join().expect("serve thread").expect("serve");
}

#[test]
fn deadline_expires_inside_the_daemon_and_survives_reopen() {
    let dir = scratch("deadline");
    let cfg = DaemonConfig::new(dir.join("state"), dir.join("d.sock"));
    let (daemon, server) = serve(&cfg);
    let id = daemon
        .submit(MatrixSpec {
            invocations: ENDLESS,
            deadline_secs: 1,
            ..MatrixSpec::default()
        })
        .expect("admitted");
    let snap = wait_for(&daemon, id, |s| s.status.is_terminal());
    assert_eq!(snap.status, JobStatus::DeadlineExceeded);
    assert_eq!(
        snap.detail.as_deref(),
        Some("wall-clock budget of 1s exhausted")
    );
    daemon.drain();
    join_within(server);
    drop(daemon);

    let reopened = Daemon::open(cfg, Arc::new(resolver)).expect("reopen");
    let snap = reopened.snapshot(id).expect("job survives reopen");
    assert_eq!(snap.status, JobStatus::DeadlineExceeded);
    assert_eq!(
        snap.detail.as_deref(),
        Some("wall-clock budget of 1s exhausted")
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shutdown_requeues_the_running_job_durably() {
    let dir = scratch("shutdown");
    let cfg = DaemonConfig::new(dir.join("state"), dir.join("d.sock"));
    let (daemon, server) = serve(&cfg);
    let id = daemon
        .submit(MatrixSpec {
            invocations: ENDLESS,
            ..MatrixSpec::default()
        })
        .expect("admitted");
    wait_for(&daemon, id, |s| s.status == JobStatus::Running);
    daemon.shutdown();
    join_within(server);
    let snap = daemon.snapshot(id).expect("job exists");
    assert_eq!(snap.status, JobStatus::Queued);
    assert_eq!(snap.detail.as_deref(), Some("requeued by shutdown"));
    drop(daemon);

    let reopened = Daemon::open(cfg, Arc::new(resolver)).expect("reopen");
    let snap = reopened.snapshot(id).expect("job survives reopen");
    assert_eq!(snap.status, JobStatus::Queued);
    assert_eq!(snap.detail.as_deref(), Some("requeued by shutdown"));
    assert_eq!(reopened.cancel(id), Ok(JobStatus::Cancelled));
    assert_eq!(
        reopened.snapshot(id).map(|s| s.status),
        Some(JobStatus::Cancelled)
    );
    let _ = std::fs::remove_dir_all(&dir);
}
