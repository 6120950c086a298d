//! Property: no external bytes abort a process.
//!
//! Byte-level fuzzing of every parser that reads input from outside the
//! process: [`parse_json`], [`RunRecord::parse_line`], [`Journal::resume`]
//! over whole files (which covers the result cache, itself a journal),
//! the daemon's job-journal replay ([`Daemon::open`]) and its request
//! handling over a real socket, down to [`MatrixSpec::from_json`].
//! Inputs are random bytes plus mutated valid records — bytes flipped,
//! spliced or cut, and half of them re-framed with a valid checksum so
//! the mutation reaches the JSON and record parsers instead of stopping
//! at the frame check. Every parser must return `None` or a structured
//! error, never panic, and what it does accept must round-trip.

use std::io::{BufRead as _, BufReader, Write as _};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use nachos::json::{checksum_frame, checksum_unframe, parse_json, Json};
use nachos::sweep::daemon::{Daemon, DaemonConfig, JobEvent, JobStatus, MatrixSpec};
use nachos::sweep::journal::{derive_seed, Attempt, Journal, RunKey, RunMetrics, RunRecord};
use nachos::sweep::{RunStatus, VariantOutcome};
use nachos::Backend;
use proptest::collection::vec;
use proptest::prelude::*;
use proptest::test_runner::TestRng;

fn scratch(what: &str) -> PathBuf {
    static CASE: AtomicUsize = AtomicUsize::new(0);
    let n = CASE.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir()
        .join("nachos-prop-parsers")
        .join(format!("{what}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// A journal record; a quarantined one carries a two-attempt log.
fn record(key: u64, status: RunStatus) -> RunRecord {
    let key = RunKey(key);
    let attempts = match status {
        RunStatus::Quarantined => vec![RunStatus::Panic; 2],
        _ => vec![status],
    };
    let attempts = (0..)
        .zip(attempts)
        .map(|(i, status)| Attempt {
            status,
            seed: derive_seed(key, i),
        })
        .collect();
    RunRecord {
        key,
        job: "gzip".into(),
        outcome: VariantOutcome {
            variant: "nachos".into(),
            backend: Backend::Nachos,
            status,
            run: None,
            error: None,
            detail: Some("stalled: node 4 waits on \"token\"\n".into()),
            injected: vec!["drop-token at cycle 3".into()],
            attempts,
            metrics: Some(RunMetrics {
                cycles: 1234,
                stalls: Default::default(),
                events: Default::default(),
                energy: Default::default(),
                l1: Default::default(),
                llc: Default::default(),
                comparator_sites: 2,
                opt: None,
            }),
        },
    }
}

/// Valid lines of every external format: run-journal records, job
/// journal events and wire requests.
fn seeds() -> Vec<String> {
    let spec = MatrixSpec {
        invocations: 2,
        filter: Some("gzip".into()),
        variants: Some(vec!["nachos".into(), "ideal".into()]),
        watchdog: Some((100, 8)),
        ..MatrixSpec::default()
    };
    let submitted = |job, spec| JobEvent::Submitted { job, spec }.to_line();
    let state = |job, to, detail: Option<&str>| {
        let detail = detail.map(str::to_owned);
        let (mismatches, degraded) = (1, 2);
        JobEvent::Transition {
            job,
            to,
            detail,
            mismatches,
            degraded,
        }
        .to_line()
    };
    let mut out = vec![
        record(0x0123_4567_89ab_cdef, RunStatus::Ok).to_line(),
        record(42, RunStatus::Quarantined).to_line(),
        submitted(1, spec.clone()),
        state(1, JobStatus::Running, None),
        state(1, JobStatus::Settled, Some("done")),
        submitted(2, MatrixSpec::default()),
        state(2, JobStatus::Running, None),
        format!("{{\"cmd\": \"submit\", \"spec\": {}}}", spec.to_json()),
    ];
    for cmd in ["status", "watch", "fetch", "cancel", "list", "ping"] {
        out.push(format!(
            "{{\"jobs\": \"nachos-jobs-v1\", \"cmd\": \"{cmd}\", \"job\": 7}}"
        ));
    }
    out
}

/// One fuzz input: `(seed pick, byte overwrites, cut point, reframe,
/// noise, mode)`. Modes: 0 plain random bytes; 1 the seed as is; 2 the
/// seed with arbitrary bytes overwritten; 3 the same with bytes from a
/// JSON-ish alphabet, which keeps many mutants parseable; 4 the seed cut
/// short; 5 the seed with noise spliced in. With `reframe`, a framed
/// seed's mutated payload gets a fresh valid checksum; without it, a
/// wrong one.
type Edits = (usize, Vec<(u16, u8)>, u16, bool, Vec<u8>, u8);

fn edits() -> impl Strategy<Value = Edits> {
    (
        0usize..64,
        vec((any::<u16>(), any::<u8>()), 1..4),
        any::<u16>(),
        any::<bool>(),
        vec(any::<u8>(), 0..256),
        0u8..6,
    )
}

fn build(seeds: &[String], (pick, writes, cut, reframe, noise, mode): &Edits) -> Vec<u8> {
    const ALPHABET: &[u8] = b"0123456789-+.eE\"\\,:{}[] truefalsn";
    if *mode == 0 {
        return noise.clone();
    }
    let seed = &seeds[pick % seeds.len()];
    let framed = checksum_unframe(seed.trim_end()).ok();
    let mut bytes = framed.unwrap_or(seed.trim_end()).as_bytes().to_vec();
    match mode {
        1 => return seed.trim_end().as_bytes().to_vec(),
        2 | 3 => {
            for &(at, b) in writes {
                let i = usize::from(at) % bytes.len();
                bytes[i] = if *mode == 2 {
                    b
                } else {
                    ALPHABET[usize::from(b) % ALPHABET.len()]
                };
            }
        }
        4 => bytes.truncate(usize::from(*cut) % (bytes.len() + 1)),
        _ => {
            let at = usize::from(*cut) % (bytes.len() + 1);
            bytes.splice(at..at, noise.iter().copied().take(16));
        }
    }
    if framed.is_some() {
        bytes = if *reframe {
            checksum_frame(&String::from_utf8_lossy(&bytes).replace('\n', " ")).into_bytes()
        } else {
            [format!("{:016x} ", *cut).as_bytes(), &bytes].concat()
        };
    }
    bytes
}

/// A fuzzed file: one built line per edit. Plain noise without the
/// reframe flag gets no newline, so it fuses with the next line the way
/// a torn append does.
fn fuzz_lines(seeds: &[String], edits: &[Edits]) -> Vec<u8> {
    let mut file = Vec::new();
    for e in edits {
        file.extend(build(seeds, e));
        if e.3 || e.5 != 0 {
            file.push(b'\n');
        }
    }
    file
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(384))]

    /// `parse_json`, `RunRecord::parse_line` and `MatrixSpec::from_json`
    /// on one fuzzed line: no panic, and whatever parses round-trips.
    #[test]
    fn line_parsers_never_panic_and_round_trip(e in edits()) {
        let seeds = seeds();
        let bytes = build(&seeds, &e);
        let text = String::from_utf8_lossy(&bytes);
        if let Some(v) = parse_json(&text) {
            if let Some(spec) = MatrixSpec::from_json(&v) {
                let again = parse_json(&spec.to_json()).and_then(|v| MatrixSpec::from_json(&v));
                prop_assert_eq!(again, Some(spec));
            }
            if let Some(spec) = v.get("spec") {
                let _ = MatrixSpec::from_json(spec);
            }
            let _ = JobEvent::from_payload(&v);
        }
        if let Ok(rec) = RunRecord::parse_line(&text) {
            let again = RunRecord::parse_line(&rec.to_line()).map(|r| r.to_line());
            prop_assert_eq!(again, Ok(rec.to_line()));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `Journal::resume` over arbitrary file bytes: loads without error,
    /// and a record appended afterwards is always recovered — the torn
    /// tail repair holds whatever the file ended with.
    #[test]
    fn journal_resume_survives_any_file(lines in vec(edits(), 0..12)) {
        let seeds = seeds();
        let dir = scratch("journal");
        let path = dir.join("cache.jsonl");
        std::fs::write(&path, fuzz_lines(&seeds, &lines)).expect("write");
        let j = Journal::resume(&path).expect("resume never fails on content");
        prop_assert!(j.corrupt() <= j.skipped());
        let fresh = record(0xfeed_f00d, RunStatus::Ok);
        j.append(&fresh).expect("append");
        drop(j);
        let j = Journal::resume(&path).expect("second resume");
        // Outcomes have no `PartialEq`: compare their serialized bytes.
        let replayed = j.lookup(fresh.key).map(|o| {
            RunRecord { outcome: o.clone(), ..fresh.clone() }.to_line()
        });
        prop_assert_eq!(replayed, Some(fresh.to_line()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The daemon's job-journal replay over arbitrary file bytes: the
    /// daemon opens, and a restart over the journal it left behind
    /// rebuilds the identical job table.
    #[test]
    fn daemon_job_journal_replay_survives_any_file(lines in vec(edits(), 0..12)) {
        let seeds = seeds();
        let dir = scratch("jobs");
        let root = dir.join("state");
        std::fs::create_dir_all(&root).expect("root");
        std::fs::write(root.join("jobs.jsonl"), fuzz_lines(&seeds, &lines)).expect("write");
        let open = || {
            Daemon::open(DaemonConfig::new(&root, dir.join("d.sock")), rejecting_resolver())
                .expect("open never fails on content")
        };
        let first: Vec<_> = open().list().into_iter().map(|s| (s.id, s.status)).collect();
        let second: Vec<_> = open().list().into_iter().map(|s| (s.id, s.status)).collect();
        prop_assert_eq!(first, second);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

fn rejecting_resolver() -> nachos::sweep::daemon::MatrixResolver {
    Arc::new(|_: &MatrixSpec| Err("fuzz daemon runs no jobs".to_owned()))
}

/// Sends `bytes` on a fresh connection and returns every response line.
fn exchange(sock: &Path, bytes: &[u8]) -> Vec<String> {
    let stream = UnixStream::connect(sock).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let mut w = stream.try_clone().expect("clone");
    w.write_all(bytes).expect("send");
    w.write_all(b"\n").expect("send");
    w.shutdown(std::net::Shutdown::Write).expect("half-close");
    BufReader::new(stream)
        .lines()
        .map(|l| l.expect("response line"))
        .collect()
}

/// Request lines through the daemon's real request handling: every line
/// is answered with a structured response, the daemon keeps serving, and
/// it still drains cleanly afterwards. Its resolver rejects every spec,
/// so fuzzed submissions are answered `bad_spec` and never run.
#[test]
fn daemon_answers_any_request_line() {
    let dir = scratch("serve");
    let sock = dir.join("d.sock");
    let cfg = DaemonConfig::new(dir.join("state"), &sock);
    let daemon = Daemon::open(cfg, rejecting_resolver()).expect("open");
    let server = std::thread::spawn(move || daemon.serve());
    let deadline = Instant::now() + Duration::from_secs(10);
    while UnixStream::connect(&sock).is_err() {
        assert!(Instant::now() < deadline, "daemon socket never appeared");
        std::thread::sleep(Duration::from_millis(5));
    }
    let (seeds, strategy) = (seeds(), edits());
    for case in 0..128 {
        let e = strategy.new_value(&mut TestRng::for_case("daemon_requests", case));
        let request = build(&seeds, &e);
        // One response per non-blank line: a handler that dies mid-way
        // (its connection closes early) is a failure too.
        let expected = request
            .split(|&b| b == b'\n')
            .filter(|l| std::str::from_utf8(l).map_or(true, |l| !l.trim().is_empty()))
            .count();
        let responses = exchange(&sock, &request);
        assert_eq!(
            responses.len(),
            expected,
            "{:?}",
            String::from_utf8_lossy(&request)
        );
        for line in responses {
            let resp = parse_json(&line).expect("responses are JSON");
            match resp.get("ok") {
                Some(Json::Bool(true)) => {}
                Some(Json::Bool(false)) => {
                    assert!(resp.get("error").and_then(Json::as_str).is_some(), "{line}");
                }
                _ => panic!("unstructured response: {line}"),
            }
        }
        let pong = exchange(&sock, b"{\"cmd\": \"ping\"}");
        assert!(
            pong.len() == 1 && pong[0].contains("\"ok\": true"),
            "{pong:?}"
        );
    }
    exchange(&sock, b"{\"cmd\": \"drain\"}");
    server.join().expect("serve thread").expect("serve");
    let _ = std::fs::remove_dir_all(&dir);
}
