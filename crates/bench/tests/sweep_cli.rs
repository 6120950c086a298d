//! End-to-end acceptance for the `sweep` binary: a real process, a real
//! SIGKILL, real journal and cache files.
//!
//! Everything here drives the compiled bin (via `CARGO_BIN_EXE_sweep`)
//! exactly as CI and a user would, and holds it to the documented
//! contract: exit codes follow the `--help` table, a killed campaign
//! resumes byte-identically under a different thread count, and a result
//! cache serves settled cells without changing a report byte.

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

/// The `sweep` command with `flags` (whitespace-separated) and then
/// `paths` as arguments.
fn sweep(flags: &str, paths: &[(&str, &Path)]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_sweep"));
    cmd.args(flags.split_whitespace());
    for (flag, path) in paths {
        cmd.arg(flag).arg(path);
    }
    cmd
}

fn run(flags: &str, paths: &[(&str, &Path)]) -> Output {
    sweep(flags, paths)
        .output()
        .unwrap_or_else(|e| panic!("sweep {flags}: {e}"))
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("nachos-sweep-cli").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn assert_success(out: &Output, what: &str) -> String {
    assert!(
        out.status.success(),
        "{what} failed ({:?}):\n{}",
        out.status,
        stderr(out)
    );
    stderr(out)
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn lines(path: &Path) -> usize {
    std::fs::read(path).map_or(0, |b| b.iter().filter(|&&c| c == b'\n').count())
}

/// The exit-code table from `--help`: a quarantined poison workload is
/// exit 0 without `--strict` and exit 3 with it.
#[test]
fn strict_flag_gates_degraded_exit_codes() {
    let dir = scratch("strict");
    let out = dir.join("out.json");
    let flags = "--filter gzip --poison gzip --max-retries 1 --invocations 1";
    assert_success(
        &run(flags, &[("--out", &out)]),
        "non-strict poison campaign",
    );
    assert!(read(&out).contains("\"status\": \"quarantined\""));
    let strict = run(&format!("{flags} --strict"), &[("--out", &out)]);
    assert_eq!(
        strict.status.code(),
        Some(3),
        "--strict must fail a degraded campaign:\n{}",
        stderr(&strict)
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Process sharding is gone: its flags are unknown arguments (exit 1),
/// not silently ignored.
#[test]
fn removed_sharding_flags_are_usage_errors() {
    for flags in ["--shards 2", "--shard-exec", "--heartbeat-interval 100"] {
        let out = run(flags, &[]);
        assert_eq!(out.status.code(), Some(1), "{flags}:\n{}", stderr(&out));
        assert!(stderr(&out).contains("unknown argument"), "{flags}");
    }
}

/// The cross-campaign cache: a second campaign with a fresh journal is
/// served every settled cell and stays byte-identical; quarantined cells
/// are re-executed, never served; a flipped byte in the cache file costs
/// exactly one re-execution, once.
#[test]
fn cache_serves_settled_cells_and_survives_a_flipped_byte() {
    let dir = scratch("cache");
    let cache = dir.join("cache.jsonl");
    // Two mcf jobs x 4 variants; 181.mcf's four cells are quarantined.
    let matrix = "--filter mcf --poison 181.mcf --max-retries 1 --invocations 2";
    let clean = dir.join("clean.json");
    assert_success(&run(matrix, &[("--out", &clean)]), "clean campaign");
    let campaign = |n: usize, expect: &str| {
        let (out, journal) = (
            dir.join(format!("c{n}.json")),
            dir.join(format!("j{n}.jsonl")),
        );
        let paths = [
            ("--cache", &*cache),
            ("--journal", &journal),
            ("--out", &out),
        ];
        let log = assert_success(&run(matrix, &paths), &format!("campaign {n}"));
        assert_eq!(
            read(&out),
            read(&clean),
            "campaign {n} changed report bytes"
        );
        assert!(
            log.contains(&format!("cache: {expect}")),
            "campaign {n}:\n{log}"
        );
        log
    };

    campaign(1, "0 hits, 8 misses, 0 corrupt lines skipped, 4 stored");
    assert_eq!(lines(&cache), 4, "only settled cells are stored");
    // Forge campaign 1's quarantined records into the cache too: every
    // settled cell is served, and still no quarantined one.
    let forged: String = read(&dir.join("j1.jsonl"))
        .lines()
        .filter(|l| l.contains("\"status\": \"quarantined\""))
        .map(|l| format!("{l}\n"))
        .collect();
    assert_eq!(forged.lines().count(), 4);
    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .open(&cache)
        .expect("open cache");
    f.write_all(forged.as_bytes()).expect("forge");
    let log = campaign(2, "4 hits, 4 misses, 0 corrupt lines skipped, 0 stored");
    assert!(log.contains("4 executed"), "{log}");

    // Flip one byte inside the first cached record: one re-execution,
    // and only once.
    let mut bytes = std::fs::read(&cache).expect("read cache");
    let first_newline = bytes.iter().position(|&b| b == b'\n').expect("a line");
    bytes[first_newline / 2] ^= 0x01;
    std::fs::write(&cache, &bytes).expect("corrupt cache");
    campaign(3, "3 hits, 5 misses, 1 corrupt lines skipped, 1 stored");
    campaign(4, "4 hits, 4 misses, 1 corrupt lines skipped, 0 stored");
    std::fs::remove_dir_all(&dir).ok();
}

/// SIGKILL mid-sweep, then `--resume` the same journal under a different
/// `--threads`: the resumed report matches an uninterrupted run byte for
/// byte, quarantined poison cells included.
#[test]
fn killed_sweep_resumes_byte_identically_under_other_threads() {
    let dir = scratch("kill-resume");
    let (journal, out) = (dir.join("j.jsonl"), dir.join("out.json"));
    let matrix = "--invocations 256 --max-retries 2 --poison parser";
    let paths = [("--journal", &*journal), ("--out", &out)];
    let mut child = sweep(&format!("{matrix} --threads 1"), &paths)
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn sweep");
    // Kill once some cells are durable but (27 x 4 cells in all) the
    // campaign is far from done.
    let deadline = Instant::now() + Duration::from_secs(60);
    while lines(&journal) < 2 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    child.kill().expect("SIGKILL the sweep");
    let _ = child.wait();
    let at_kill = lines(&journal);
    assert!(
        (2..27 * 4).contains(&at_kill),
        "kill landed mid-campaign ({at_kill} records)"
    );
    assert!(!out.exists(), "a killed sweep writes no report");

    let resumed = run(&format!("{matrix} --threads 2 --resume"), &paths);
    let log = assert_success(&resumed, "resumed sweep");
    assert!(
        log.contains(&format!("{at_kill} runs replayed from the journal")),
        "{log}"
    );
    let clean = dir.join("clean.json");
    assert_success(&run(matrix, &[("--out", &clean)]), "clean sweep");
    assert_eq!(
        read(&out),
        read(&clean),
        "a killed-and-resumed campaign changed report bytes"
    );
    assert!(read(&clean).contains("\"status\": \"quarantined\""));
    std::fs::remove_dir_all(&dir).ok();
}
