//! Crash-recovery acceptance suite (DESIGN §Failure model).
//!
//! A sweep interrupted at any point — process kill, torn journal write,
//! cancellation — must resume from its durable journal and emit a report
//! **byte-identical** to an uninterrupted run, retry attempt logs
//! included. A job that panics on every attempt must be quarantined
//! without poisoning the rest of the matrix. A journal line carries the
//! report's own run object, so a cell has one format on disk. The same
//! contract through the real binary — `kill -9` mid-sweep, then
//! `--resume` — is pinned by `crates/bench/tests/sweep_cli.rs`.

use std::fs::OpenOptions;
use std::io::Write as _;
use std::path::PathBuf;

use nachos::json::{checksum_frame, checksum_unframe, parse_json, Json};
use nachos::sweep::journal::{Journal, LineError, RunRecord};
use nachos::sweep::{run_sweep, run_sweep_journaled, RunStatus, SweepConfig, SweepJob};
use nachos::{Backend, FaultKind, FaultPlan, FaultSpec};
use nachos_ir::{AffineExpr, Binding, IntOp, MemRef, RegionBuilder};
use nachos_workloads::{by_name, generate, generate_all};

fn tmp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("nachos-resume-suite");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name)
}

fn job(name: &str) -> SweepJob {
    let w = generate(&by_name(name).unwrap_or_else(|| panic!("unknown workload {name}")));
    SweepJob::new(w.spec.name, w.region, w.binding)
}

/// Two stores to one address: an ORDER token flows under the MDE
/// backends, so a `DropToken` fault deterministically deadlocks the
/// NACHOS-SW run (and a retry deadlocks again — a multi-attempt cell).
fn token_job(name: &str) -> SweepJob {
    let mut b = RegionBuilder::new(name);
    let g = b.global("g", 64, 0);
    let m = MemRef::affine(g, AffineExpr::zero());
    let x = b.input();
    b.store(m.clone(), &[x]);
    let y = b.int_op(IntOp::Add, &[x]);
    b.store(m, &[y]);
    SweepJob::new(
        name,
        b.finish(),
        Binding {
            base_addrs: vec![0x1_0000],
            ..Binding::default()
        },
    )
    .with_fault(FaultPlan::single(
        FaultSpec::new(FaultKind::DropToken, 0).on_backend(Backend::NachosSw),
    ))
}

/// The interrupt-and-resume contract, end to end: a journaled sweep dies
/// after finishing only a prefix of its jobs — with a torn half-written
/// record at the journal's tail, as a real `kill -9` mid-append leaves —
/// and the resumed sweep replays the survivors, re-executes the rest, and
/// reproduces the uninterrupted report byte for byte. The job list
/// includes a deadlock-injected run under a retry budget, so the replayed
/// cells carry multi-attempt logs, not just terminal statuses.
#[test]
fn interrupted_sweep_resumes_byte_identically() {
    let jobs = vec![job("gzip"), token_job("drop-token"), job("fft-2d")];
    let cfg = SweepConfig::default()
        .with_invocations(6)
        .with_retries(1)
        .with_threads(2);
    let variants = cfg.variants.len();

    // The reference: one uninterrupted, unjournaled run.
    let clean = run_sweep(&jobs, &cfg).to_json();

    // "Crash" after two of three jobs, then tear the journal's tail the
    // way an interrupted append would.
    let path = tmp_path("interrupt.jsonl");
    {
        let journal = Journal::create(&path).expect("create journal");
        let (_, stats) = run_sweep_journaled(&jobs[..2], &cfg, Some(&journal), None);
        assert_eq!(stats.executed, 2 * variants);
        assert_eq!(stats.journal_errors, 0);
    }
    let mut f = OpenOptions::new().append(true).open(&path).expect("open");
    write!(f, "{{\"journal\": \"nachos-journal-v1\", \"key\": \"dead").expect("torn write");
    drop(f);

    // Resume over the full job list: the two finished jobs replay, the
    // torn record is skipped, the third job runs live.
    let journal = Journal::resume(&path).expect("resume journal");
    assert_eq!(journal.replay_len(), 2 * variants);
    assert_eq!(journal.skipped(), 1, "the torn tail record is skipped");
    let (resumed, stats) = run_sweep_journaled(&jobs, &cfg, Some(&journal), None);
    assert_eq!(stats.replayed, 2 * variants);
    assert_eq!(stats.executed, variants);
    assert_eq!(
        resumed.to_json(),
        clean,
        "resumed report diverges from the uninterrupted run"
    );
    // The deadlock cell retried once under the budget, and the attempt
    // log survives the report round-trip.
    assert!(resumed.to_json().contains("\"attempts\": 2"));

    // A second resume finds everything journaled and executes nothing.
    let journal = Journal::resume(&path).expect("resume journal");
    assert_eq!(journal.replay_len(), 3 * variants);
    let (replayed, stats) = run_sweep_journaled(&jobs, &cfg, Some(&journal), None);
    assert_eq!(stats.executed, 0);
    assert_eq!(stats.replayed, 3 * variants);
    assert_eq!(replayed.to_json(), clean);
    std::fs::remove_file(&path).ok();
}

/// The quarantine acceptance bar: the full 27-workload Table II matrix
/// under five variants (the bench matrix plus the IDEAL oracle) with one
/// job injected to panic on every attempt. The poison job's cells exhaust
/// their retry budget and land as `quarantined`; the other 130 runs
/// complete and match the reference; and the whole report — quarantine
/// details and per-attempt seeds included — is byte-identical across
/// worker-thread counts.
#[test]
fn quarantined_poison_job_leaves_the_rest_of_the_sweep_intact() {
    let mut jobs: Vec<SweepJob> = generate_all()
        .into_iter()
        .map(|w| SweepJob::new(w.spec.name, w.region, w.binding))
        .collect();
    assert_eq!(jobs.len(), 27, "Table II has 27 workloads");
    let victim = 11;
    let victim_name = jobs[victim].name.clone();
    jobs[victim].fault = FaultPlan::single(FaultSpec::new(FaultKind::PanicOnEvent, 0));

    let cfg = SweepConfig::default()
        .with_invocations(4)
        .with_variants(nachos::sweep::SweepVariant::bench_matrix())
        .with_ideal()
        .with_retries(2)
        .with_threads(4);
    assert_eq!(cfg.variants.len(), 5);

    let sweep = run_sweep(&jobs, &cfg);
    let statuses = sweep.statuses();
    assert_eq!(statuses.len(), 27 * 5);

    let quarantined: Vec<_> = statuses
        .iter()
        .filter(|(_, _, s)| *s == RunStatus::Quarantined)
        .collect();
    assert!(
        !quarantined.is_empty(),
        "the poison job must exhaust its retries into quarantine"
    );
    assert!(
        quarantined.iter().all(|(job, _, _)| *job == victim_name),
        "quarantine must not leak beyond the poison job: {quarantined:?}"
    );
    for (j, v, s) in &statuses {
        if *j != victim_name {
            assert_eq!(
                *s,
                RunStatus::Ok,
                "{j} [{v}]: poison job corrupted an unrelated run"
            );
        }
    }
    let ok = statuses
        .iter()
        .filter(|(_, _, s)| *s == RunStatus::Ok)
        .count();
    assert!(ok >= 130, "only {ok} of 135 runs completed");

    // Quarantined cells are reported — with their attempt history — not
    // silently dropped.
    let json = sweep.to_json();
    assert!(json.contains("\"status\": \"quarantined\""));
    assert!(json.contains("\"attempts\": 3"));
    assert!(json.contains("quarantined after 3 panicking attempts"));

    // Determinism: the same matrix on one thread reproduces the report
    // byte for byte, per-attempt seeds and all.
    let single = run_sweep(&jobs, &cfg.clone().with_threads(1));
    assert_eq!(single.to_json(), json);
}

/// One cell format: every journal line is framed `nachos-journal-v3`,
/// and its `run` object parses equal to that cell's object in the report
/// — for `ok` cells, multi-attempt `quarantined` cells (attempt log and
/// all) and the optimizer's `opt` ledger. A `nachos-journal-v2` line is
/// a foreign schema: unusable, skipped and counted (not as corruption),
/// and its cell re-executes into the same report.
#[test]
fn journal_lines_are_report_cells_and_v2_lines_reexecute() {
    let mut poison = job("fft-2d");
    poison.fault = FaultPlan::single(FaultSpec::new(FaultKind::PanicOnEvent, 0));
    let jobs = vec![job("gzip"), poison];
    let cfg = SweepConfig::default()
        .with_invocations(4)
        .with_retries(2)
        .with_optimize(true);
    let path = tmp_path("one-format.jsonl");
    let journal = Journal::create(&path).expect("create journal");
    let (clean, _) = run_sweep_journaled(&jobs, &cfg, Some(&journal), None);
    drop(journal);
    let report = parse_json(&clean.to_json()).expect("report parses");
    let text = std::fs::read_to_string(&path).expect("read journal");
    let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
    assert_eq!(lines.len(), jobs.len() * cfg.variants.len());
    for line in &lines {
        let rec = parse_json(checksum_unframe(line).expect("framed")).expect("payload parses");
        assert_eq!(
            rec.get("journal").and_then(Json::as_str),
            Some("nachos-journal-v3")
        );
        let run = rec.get("run").expect("run object");
        let cell = report
            .get("jobs")
            .and_then(Json::as_arr)
            .into_iter()
            .flatten()
            .filter(|j| j.get("name") == rec.get("job"))
            .flat_map(|j| j.get("runs").and_then(Json::as_arr).unwrap_or_default())
            .find(|r| r.get("variant") == run.get("variant"))
            .expect("the report has the journaled cell");
        assert_eq!(run, cell);
    }
    for needle in ["\"status\": \"ok\"", "\"attempt_log\"", "\"opt\""] {
        assert!(text.contains(needle), "the journal covers {needle}");
    }
    assert!(text.contains("\"status\": \"quarantined\""));

    // Re-tag one record as v2 under a valid checksum. Its body would read
    // fine, so only the schema tag keeps the reader from trusting it.
    let payload = checksum_unframe(&lines[0]).expect("framed");
    lines[0] = checksum_frame(&payload.replace("nachos-journal-v3", "nachos-journal-v2"));
    assert_eq!(
        RunRecord::parse_line(&lines[0]).err(),
        Some(LineError::Unusable)
    );
    std::fs::write(&path, lines.join("\n") + "\n").expect("write journal");
    let journal = Journal::resume(&path).expect("resume journal");
    assert_eq!((journal.skipped(), journal.corrupt()), (1, 0));
    let (resumed, stats) = run_sweep_journaled(&jobs, &cfg, Some(&journal), None);
    assert_eq!((stats.replayed, stats.executed), (lines.len() - 1, 1));
    assert_eq!(resumed.to_json(), clean.to_json());
    std::fs::remove_file(&path).ok();
}
