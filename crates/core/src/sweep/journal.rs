//! The durable run journal behind crash-recoverable sweeps.
//!
//! A long evaluation campaign (27 workloads × 5 variants, or a generated
//! matrix orders of magnitude larger) must survive a panic, an OOM-kill
//! or a plain SIGKILL without discarding hours of completed work. The
//! journal makes the sweep resumable *to the byte*:
//!
//! * every completed `(job, variant)` cell is appended to a JSONL file as
//!   one self-contained [`RunRecord`] — written with a single `write`,
//!   flushed and fsynced before the supervisor moves on, so a crash can
//!   lose at most the in-flight line (and a torn line is skipped on
//!   replay, never misparsed);
//! * every line is wrapped in a `<16-hex FNV-1a> <payload>` checksum
//!   frame ([`crate::json::checksum_frame`]), so corruption *anywhere*
//!   in the file — flipped bytes in an old record, a partial overwrite,
//!   mid-file truncation — is detected on replay, counted
//!   ([`Journal::corrupt`]), and dropped; the affected cells re-execute
//!   and every other record (before and after) is kept;
//! * records are keyed by a **content hash** of (region, binding,
//!   variant, fault plan, simulator config) — not by position or name —
//!   so resuming with a reordered, filtered or extended job list replays
//!   exactly the cells whose inputs are unchanged and re-runs the rest;
//! * on restart, [`Journal::resume`] loads the replay map and
//!   `run_sweep` skips completed keys; the final `nachos-sweep-v4`
//!   report is byte-identical to an uninterrupted run because a record
//!   *is* the report's run object: one writer
//!   (`VariantOutcome::write_json`) emits the cell into both the report
//!   and the journal, and one reader (`VariantOutcome::from_json`)
//!   brings it back — `f64` energy values included, which use Rust's
//!   shortest-roundtrip formatting both ways.
//!
//! The same file format doubles as the cross-campaign result cache
//! (`sweep --cache`): a cache is a journal that a sweep consults after
//! its campaign journal, serving only settled statuses
//! ([`RunStatus::is_settled`]) and appending the settled cells it
//! executes. One reader, one format, one corruption policy.
//!
//! A line is `<checksum> {"journal": "nachos-journal-v3", "key", "job",
//! "run"}`, written by the compact [`JsonWriter`] and read back by
//! [`crate::json::parse_json`], which keeps numbers as raw text so `u64`
//! seeds survive without an `f64` detour. A line of an older schema
//! (`nachos-journal-v2` wrote its own field layout) is skipped and
//! counted like any other unusable line, and its cell re-executes.

use super::{RunStatus, SweepVariant, VariantOutcome};
use crate::config::SimConfig;
use crate::energy::{EnergyBreakdown, EventCounts};
use crate::engine::StallCounts;
use crate::json::{checksum_frame, checksum_unframe, read_bounded_line, BoundedLine};
use crate::json::{Fnv1a, FrameError, JsonWriter};
use nachos_alias::OptStats;
use nachos_mem::CacheStats;
use std::collections::HashMap;
use std::fmt::{self, Write as _};
use std::fs::{File, OpenOptions};
use std::io::{self, BufReader, Read as _, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// The JSON reader lives in [`crate::json`]; it is re-exported here
/// because it started out in this module and code outside the crate
/// (the `perfbench` harness among it) still imports
/// `nachos::sweep::journal::{parse_json, Json}`.
pub use crate::json::{parse_json, Json};

/// Journal line schema tag; bump when the record layout changes so stale
/// journals are skipped (and re-run) instead of misread.
pub const JOURNAL_SCHEMA: &str = "nachos-journal-v3";

// ---------------------------------------------------------------------
// Content hashing
// ---------------------------------------------------------------------

/// SplitMix64 — the standard finalizer used to derive per-attempt seeds
/// from a run key. Bijective, so distinct (key, attempt) pairs map to
/// distinct seeds.
#[must_use]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The content hash identifying one `(job, variant)` cell. Displayed and
/// stored as 16 lowercase hex digits.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct RunKey(pub u64);

impl fmt::Display for RunKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

impl RunKey {
    /// Parses the 16-hex-digit journal form.
    #[must_use]
    pub fn parse(s: &str) -> Option<RunKey> {
        if s.len() != 16 {
            return None;
        }
        u64::from_str_radix(s, 16).ok().map(RunKey)
    }
}

/// Fingerprints everything a job shares across its variant cells: the
/// region, the binding and the *effective* simulator configuration (the
/// sweep-wide config with the job's fault plan already merged in).
///
/// The [`crate::CancelToken`] is runtime control, not configuration, and
/// is deliberately excluded; the job *name* is excluded too — keys are
/// content hashes, so renaming a workload keeps its journal entries
/// valid while any change to its region, binding, faults or config
/// invalidates them.
#[must_use]
pub fn job_fingerprint(
    region: &nachos_ir::Region,
    binding: &nachos_ir::Binding,
    sim: &SimConfig,
) -> u64 {
    let mut h = Fnv1a::EMPTY;
    let _ = write!(h, "{region:?}|{binding:?}|");
    let _ = write!(
        h,
        "{:?}|{:?}|{:?}|{:?}|{}|{}|{}|{:?}|{:?}",
        sim.grid,
        sim.latency,
        sim.hierarchy,
        sim.lsq,
        sim.mem_ports,
        sim.comparators_per_site,
        sim.invocations,
        sim.watchdog,
        sim.fault,
    );
    // The optimizer changes the compiled MDE graph, so it is content.
    let _ = write!(h, "|opt={}", sim.optimize);
    h.0
}

/// Extends a job fingerprint with one variant column (label, backend and
/// compiler staging) into the cell's [`RunKey`].
#[must_use]
pub fn run_key(job_fingerprint: u64, variant: &SweepVariant) -> RunKey {
    let mut h = Fnv1a(job_fingerprint);
    let _ = write!(
        h,
        "|{}|{:?}|{:?}",
        variant.label, variant.backend, variant.stages
    );
    RunKey(h.0)
}

/// Derives the deterministic seed for retry attempt `attempt` (0-based)
/// of the run identified by `key`. No wall-clock, no global state: the
/// same key and attempt index always yield the same seed, on any thread
/// count, which keeps retried reports byte-deterministic.
#[must_use]
pub fn derive_seed(key: RunKey, attempt: u32) -> u64 {
    splitmix64(key.0 ^ u64::from(attempt).wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

// ---------------------------------------------------------------------
// Records
// ---------------------------------------------------------------------

/// One supervised attempt of a run: the status it ended with and the
/// deterministic seed it ran under (see [`derive_seed`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Attempt {
    /// The attempt's verdict.
    pub status: RunStatus,
    /// The attempt's derived seed.
    pub seed: u64,
}

/// The reportable metrics of a completed run — exactly the scalar fields
/// `nachos-sweep-v4` emits per run, so a journaled cell reproduces its
/// report bytes without re-simulation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RunMetrics {
    /// Total simulated cycles.
    pub cycles: u64,
    /// Cycle-weighted stall attribution.
    pub stalls: StallCounts,
    /// Raw event counts.
    pub events: EventCounts,
    /// Energy by component (femtojoules).
    pub energy: EnergyBreakdown,
    /// L1 statistics.
    pub l1: CacheStats,
    /// LLC statistics.
    pub llc: CacheStats,
    /// Distinct `==?` comparator sites in the simulated DFG.
    pub comparator_sites: u64,
    /// Optimizer counters (`None` when `nachos-opt` did not run).
    pub opt: Option<OptStats>,
}

impl RunMetrics {
    /// Extracts the reportable metrics from a completed experiment,
    /// including the optimizer ledger when the compile carried one.
    #[must_use]
    pub fn from_run(run: &crate::driver::ExperimentRun) -> Self {
        let sim = &run.sim;
        Self {
            cycles: sim.cycles,
            stalls: sim.stalls,
            events: sim.events,
            energy: sim.energy,
            l1: sim.l1,
            llc: sim.llc,
            comparator_sites: sim.comparator_sites,
            opt: run
                .analysis
                .as_ref()
                .and_then(|a| a.opt.as_ref())
                .map(|o| o.stats),
        }
    }
}

/// One journal line: a cell's content key, the job name at record time
/// (diagnostics only — replay matches on the key, never on the name) and
/// the cell's outcome as the report shows it, without a live run or
/// error.
#[derive(Clone, Debug)]
pub struct RunRecord {
    /// Content hash of the cell's inputs.
    pub key: RunKey,
    /// Job name at record time.
    pub job: String,
    /// The recorded outcome; its `run` and `error` are `None`.
    pub outcome: VariantOutcome,
}

/// Why a journal line failed to parse as a [`RunRecord`] — the split
/// drives the journal's corruption accounting: [`LineError::Corrupt`]
/// lines carried a checksum frame that no longer matches their bytes
/// (flipped bits, partial overwrite), while [`LineError::Unusable`]
/// covers everything else (torn tails, foreign schemas, hand-edited
/// junk). Both are dropped — and their cells
/// re-executed — rather than trusted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LineError {
    /// Framed line whose checksum disagrees with its payload.
    Corrupt,
    /// Anything else unusable: unframed, unparsable, or a different
    /// record schema.
    Unusable,
}

impl RunRecord {
    /// Serializes the record to its single-line JSONL form: a compact
    /// JSON payload wrapped in the `<16-hex FNV-1a> <payload>` checksum
    /// frame ([`crate::json::checksum_frame`]), newline terminated.
    /// The checksum makes corruption anywhere in the record — not just
    /// a torn tail — detectable on replay.
    #[must_use]
    pub fn to_line(&self) -> String {
        let mut framed = checksum_frame(self.payload().trim_end_matches('\n'));
        framed.push('\n');
        framed
    }

    /// The record's compact JSON payload (the framed part of
    /// [`Self::to_line`]), newline terminated.
    fn payload(&self) -> String {
        let mut w = JsonWriter::compact();
        w.open_obj();
        w.str_field("journal", JOURNAL_SCHEMA);
        w.str_field("key", &self.key.to_string());
        w.str_field("job", &self.job);
        w.key("run");
        self.outcome.write_json(&mut w);
        w.close_obj();
        w.finish()
    }

    /// Parses one journal line. Anything unusable — torn tail lines
    /// from a crash, checksum-failing corrupt records, foreign schemas,
    /// hand-edited junk — is an error, so replay degrades to re-running
    /// those cells instead of failing: a framed line whose checksum
    /// fails is [`LineError::Corrupt`]; everything else unusable is
    /// [`LineError::Unusable`].
    ///
    /// # Errors
    ///
    /// Returns the classification of why the line is not a valid
    /// record.
    pub fn parse_line(line: &str) -> Result<RunRecord, LineError> {
        match checksum_unframe(line.trim_end_matches(['\n', '\r'])) {
            Ok(payload) => Self::from_payload(payload).ok_or(LineError::Unusable),
            Err(FrameError::Corrupt) => Err(LineError::Corrupt),
            Err(FrameError::Unframed) => Err(LineError::Unusable),
        }
    }

    /// Parses the JSON payload of an already-unframed record line.
    fn from_payload(line: &str) -> Option<RunRecord> {
        let v = parse_json(line)?;
        if v.get("journal")?.as_str()? != JOURNAL_SCHEMA {
            return None;
        }
        let key = RunKey::parse(v.get("key")?.as_str()?)?;
        Some(RunRecord {
            key,
            job: v.get("job")?.as_str()?.to_owned(),
            outcome: VariantOutcome::from_json(v.get("run")?, key)?,
        })
    }
}

// ---------------------------------------------------------------------
// The journal file
// ---------------------------------------------------------------------

/// The durable append-only journal. Opened once per sweep; workers
/// append completed cells through a mutex (one line per append, flushed
/// and fsynced before the lock drops), and the preloaded replay map
/// serves `lookup` without touching the file again.
#[derive(Debug)]
pub struct Journal {
    file: Mutex<File>,
    replay: HashMap<u64, VariantOutcome>,
    skipped: usize,
    corrupt: usize,
}

impl Journal {
    /// Starts a fresh journal at `path`, truncating any previous file —
    /// the non-`--resume` mode, where stale entries must not leak into a
    /// new campaign.
    ///
    /// # Errors
    ///
    /// Propagates file creation errors.
    pub fn create(path: impl Into<PathBuf>) -> io::Result<Journal> {
        let file = File::create(path.into())?;
        Ok(Journal {
            file: Mutex::new(file),
            replay: HashMap::new(),
            skipped: 0,
            corrupt: 0,
        })
    }

    /// Opens `path` for resumption: parses every intact line into the
    /// replay map (later duplicates of a key win), then reopens the
    /// file for appending. A missing file is an empty journal, so
    /// `--resume` on a first run degrades to a fresh start.
    ///
    /// Replay is hardened against corruption *anywhere* in the file,
    /// not just the torn tail a crash mid-append leaves: lines are read
    /// as raw bytes (invalid UTF-8 cannot abort the load), and a line
    /// whose checksum frame fails, whose JSON is malformed, or whose
    /// schema is foreign is counted ([`Journal::skipped`], with
    /// checksum failures also in [`Journal::corrupt`]) and dropped —
    /// every valid record before *and after* it is kept, and the
    /// dropped cells simply re-execute. Record length is capped at
    /// [`MAX_RECORD_LEN`] during recovery: a corrupt frame header that
    /// claims (or simply is) a multi-GiB "line" is streamed past and
    /// counted, never buffered, so a hostile or trashed journal cannot
    /// OOM the resume path.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors other than the file not existing.
    pub fn resume(path: impl Into<PathBuf>) -> io::Result<Journal> {
        let path = path.into();
        let mut replay = HashMap::new();
        let (mut skipped, mut corrupt) = (0, 0);
        let file = recover_lines(&path, |line| {
            match line.map(RunRecord::parse_line) {
                Some(Ok(rec)) => {
                    replay.insert(rec.key.0, rec.outcome);
                    return;
                }
                Some(Err(LineError::Unusable)) => {}
                // An oversized or non-UTF-8 line is corruption like a
                // failed checksum: no legitimate record looks like that.
                Some(Err(LineError::Corrupt)) | None => corrupt += 1,
            }
            skipped += 1;
        })?;
        Ok(Journal {
            file: Mutex::new(file),
            replay,
            skipped,
            corrupt,
        })
    }

    /// Completed cells loaded for replay.
    #[must_use]
    pub fn replay_len(&self) -> usize {
        self.replay.len()
    }

    /// Malformed lines skipped while loading (a torn tail line after a
    /// crash is normal and costs exactly one re-run).
    #[must_use]
    pub fn skipped(&self) -> usize {
        self.skipped
    }

    /// The subset of [`Journal::skipped`] that carried a checksum frame
    /// failing verification — records corrupted on disk after they were
    /// written, as opposed to torn or foreign lines.
    #[must_use]
    pub fn corrupt(&self) -> usize {
        self.corrupt
    }

    /// The recorded outcome for `key`, when the journal has one.
    #[must_use]
    pub fn lookup(&self, key: RunKey) -> Option<&VariantOutcome> {
        self.replay.get(&key.0)
    }

    /// Durably appends one completed cell: a single `write` of the JSONL
    /// line, flushed and fsynced before returning, so the record either
    /// exists completely or (after a crash mid-write) fails to parse and
    /// is re-run — never half-trusted.
    ///
    /// # Errors
    ///
    /// Propagates write/fsync errors (and a poisoned append lock as
    /// [`io::ErrorKind::Other`]).
    pub fn append(&self, record: &RunRecord) -> io::Result<()> {
        let line = record.to_line();
        let mut file = self
            .file
            .lock()
            .map_err(|_| io::Error::other("journal append lock poisoned"))?;
        file.write_all(line.as_bytes())?;
        file.flush()?;
        file.sync_data()
    }
}

/// Upper bound on one recovered record line, in bytes. Real journal
/// records are a few KiB; the margin is ~1000×. Anything longer is by
/// definition corruption (e.g. a frame header whose newline was
/// overwritten, fusing it onto gigabytes of foreign bytes) and is
/// skipped without ever being buffered.
pub const MAX_RECORD_LEN: usize = 4 << 20;

/// Recovers a checksum-framed JSONL file — a run journal or the
/// daemon's job journal — and reopens it for appending. Every non-blank
/// line reaches `each` trimmed; a line that cannot be a record reaches
/// it as `None`: one longer than [`MAX_RECORD_LEN`] (streamed past,
/// never buffered) or one that is not UTF-8. A missing file is empty.
/// A crash mid-append leaves a final line with no newline; one is
/// written before anything else, so the next append cannot fuse onto it.
///
/// # Errors
///
/// Propagates I/O errors other than the file not existing.
pub(crate) fn recover_lines(path: &Path, mut each: impl FnMut(Option<&str>)) -> io::Result<File> {
    match File::open(path) {
        Ok(f) => {
            let mut reader = BufReader::new(f);
            let mut buf = Vec::new();
            loop {
                match read_bounded_line(&mut reader, &mut buf, MAX_RECORD_LEN)? {
                    BoundedLine::Eof => break,
                    BoundedLine::Oversized => each(None),
                    BoundedLine::Line => match std::str::from_utf8(&buf) {
                        Ok(line) if line.trim().is_empty() => {}
                        Ok(line) => each(Some(line.trim())),
                        Err(_) => each(None),
                    },
                }
            }
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => {}
        Err(e) => return Err(e),
    }
    let mut file = OpenOptions::new()
        .read(true)
        .append(true)
        .create(true)
        .open(path)?;
    if file.seek(SeekFrom::End(0))? > 0 {
        file.seek(SeekFrom::End(-1))?;
        let mut last = [0u8; 1];
        file.read_exact(&mut last)?;
        if last[0] != b'\n' {
            file.write_all(b"\n")?;
            file.flush()?;
        }
    }
    Ok(file)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Backend;
    use crate::sweep::SweepJob;
    use crate::testutil::store_load_region;

    fn demo_record(seed: u64) -> RunRecord {
        RunRecord {
            key: RunKey(0x0123_4567_89ab_cdef),
            job: "demo \"quoted\"".into(),
            outcome: VariantOutcome {
                variant: "nachos".into(),
                backend: Backend::Nachos,
                status: RunStatus::Ok,
                run: None,
                error: None,
                detail: None,
                injected: vec!["drop-token at cycle 3 (token to node 4)".into()],
                attempts: vec![
                    Attempt {
                        status: RunStatus::Panic,
                        seed,
                    },
                    Attempt {
                        status: RunStatus::Ok,
                        seed: seed.wrapping_add(1),
                    },
                ],
                metrics: Some(RunMetrics {
                    cycles: 123,
                    stalls: StallCounts {
                        token: 7,
                        ..StallCounts::default()
                    },
                    events: EventCounts {
                        int_ops: 42,
                        forwards: 3,
                        ..EventCounts::default()
                    },
                    energy: EnergyBreakdown {
                        compute: 1.5,
                        mde: 0.125,
                        lsq_bloom: 0.0,
                        lsq_cam: 0.1 + 0.2, // a classic non-round f64
                        l1: 9.75,
                    },
                    l1: CacheStats {
                        hits: 10,
                        misses: 2,
                        writebacks: 1,
                    },
                    llc: CacheStats {
                        hits: 1,
                        misses: 1,
                        writebacks: 0,
                    },
                    comparator_sites: 2,
                    opt: Some(OptStats {
                        order_before: 6,
                        may_before: 4,
                        order_removed: 1,
                        may_coalesced: 2,
                        may_upgraded: 1,
                        may_upgraded_edges: 1,
                    }),
                }),
            },
        }
    }

    /// `true` iff `j` replays `rec`'s outcome. Outcomes have no
    /// `PartialEq`, so they are compared by their serialized bytes.
    fn replays(j: &Journal, rec: &RunRecord) -> bool {
        j.lookup(rec.key).is_some_and(|outcome| {
            let back = RunRecord {
                outcome: outcome.clone(),
                ..rec.clone()
            };
            back.to_line() == rec.to_line()
        })
    }

    #[test]
    fn record_roundtrips_bit_exactly() {
        // Full-range u64 seeds must survive (beyond f64's 2^53).
        let rec = demo_record(u64::MAX - 7);
        let line = rec.to_line();
        assert_eq!(line.matches('\n').count(), 1, "one line, one record");
        let back = RunRecord::parse_line(&line).expect("parses");
        assert_eq!(back.outcome.attempts, rec.outcome.attempts);
        assert_eq!(back.outcome.metrics, rec.outcome.metrics);
        // And the re-serialized line is identical (stable bytes).
        assert_eq!(back.to_line(), line);
        // A lone attempt's seed is not written: the key rebuilds it.
        let mut lone = demo_record(0);
        lone.outcome.attempts = vec![Attempt {
            status: RunStatus::Ok,
            seed: derive_seed(lone.key, 0),
        }];
        let back = RunRecord::parse_line(&lone.to_line()).expect("parses");
        assert_eq!(back.outcome.attempts, lone.outcome.attempts);
    }

    #[test]
    fn torn_and_foreign_lines_are_skipped() {
        let rec = demo_record(1);
        let line = rec.to_line();
        assert!(RunRecord::parse_line(&line[..line.len() / 2]).is_err());
        assert!(RunRecord::parse_line("").is_err());
        assert!(RunRecord::parse_line("{\"journal\": \"other-v9\"}").is_err());
        assert!(RunRecord::parse_line("not json at all").is_err());
        // An `attempts` count that disagrees with the attempt log.
        let forged = checksum_unframe(line.trim_end())
            .unwrap()
            .replace("\"attempts\": 2", "\"attempts\": 3");
        let forged = checksum_frame(&forged);
        assert_eq!(
            RunRecord::parse_line(&forged).err(),
            Some(LineError::Unusable)
        );
    }

    #[test]
    fn keys_are_content_hashes() {
        let (region, binding) = store_load_region("a");
        let sim = SimConfig::default();
        let fp = job_fingerprint(&region, &binding, &sim);
        // Stable under recomputation.
        assert_eq!(fp, job_fingerprint(&region, &binding, &sim));
        // Any config change invalidates the key.
        let mut other = sim.clone();
        other.invocations += 1;
        assert_ne!(fp, job_fingerprint(&region, &binding, &other));
        // The optimizer changes the compiled graph: content, not control.
        let optimized = sim.clone().with_optimize(true);
        assert_ne!(fp, job_fingerprint(&region, &binding, &optimized));
        // The cancel token does NOT (runtime control, not content).
        let cancelled = sim.clone().with_cancel(crate::CancelToken::new());
        assert_eq!(fp, job_fingerprint(&region, &binding, &cancelled));
        // Variants split the key.
        let variants = SweepVariant::paper_matrix();
        let k0 = run_key(fp, &variants[0]);
        let k1 = run_key(fp, &variants[1]);
        assert_ne!(k0, k1);
        assert_eq!(k0, run_key(fp, &variants[0]));
    }

    #[test]
    fn fault_plan_enters_the_fingerprint() {
        use crate::fault::{FaultKind, FaultSpec};
        let (region, binding) = store_load_region("f");
        let job = SweepJob::new("f", region.clone(), binding.clone());
        let sim = SimConfig::default();
        let mut faulted = sim.clone();
        faulted
            .fault
            .faults
            .push(FaultSpec::new(FaultKind::DropToken, 0).on_backend(Backend::NachosSw));
        assert_ne!(
            job_fingerprint(&job.region, &job.binding, &sim),
            job_fingerprint(&job.region, &job.binding, &faulted),
        );
    }

    #[test]
    fn seed_derivation_is_deterministic_and_attempt_sensitive() {
        let k = RunKey(42);
        assert_eq!(derive_seed(k, 0), derive_seed(k, 0));
        assert_ne!(derive_seed(k, 0), derive_seed(k, 1));
        assert_ne!(derive_seed(k, 0), derive_seed(RunKey(43), 0));
    }

    #[test]
    fn run_key_hex_roundtrip() {
        let k = RunKey(0x00ff_0000_0000_00aa);
        assert_eq!(k.to_string(), "00ff0000000000aa");
        assert_eq!(RunKey::parse(&k.to_string()), Some(k));
        assert_eq!(RunKey::parse("xyz"), None);
        assert_eq!(RunKey::parse("00ff"), None);
    }

    #[test]
    fn journal_create_resume_and_replay() {
        let dir = std::env::temp_dir().join("nachos-journal-unit");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("j.jsonl");
        let rec_a = demo_record(7);
        let mut rec_b = demo_record(9);
        rec_b.key = RunKey(0xbbbb);
        {
            let j = Journal::create(&path).unwrap();
            j.append(&rec_a).unwrap();
            j.append(&rec_b).unwrap();
        }
        // Simulate a crash mid-append: a torn half line at the tail.
        {
            use std::io::Write as _;
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            let torn = demo_record(11).to_line();
            f.write_all(&torn.as_bytes()[..torn.len() / 3]).unwrap();
        }
        let j = Journal::resume(&path).unwrap();
        assert_eq!(j.replay_len(), 2);
        assert_eq!(j.skipped(), 1, "the torn tail is skipped, not fatal");
        assert!(replays(&j, &rec_a));
        assert!(replays(&j, &rec_b));
        assert!(j.lookup(RunKey(0xdead)).is_none());
        // Resume newline-terminates the torn tail, so a record appended
        // after the crash does not concatenate onto it and get lost.
        let mut rec_c = demo_record(11);
        rec_c.key = RunKey(0xcccc);
        j.append(&rec_c).unwrap();
        drop(j);
        let j = Journal::resume(&path).unwrap();
        assert_eq!(
            j.replay_len(),
            3,
            "post-crash append survives the torn tail"
        );
        assert!(replays(&j, &rec_c));
        // `create` truncates: a fresh campaign sees nothing stale.
        let fresh = Journal::create(&path).unwrap();
        assert_eq!(fresh.replay_len(), 0);
        drop(fresh);
        assert_eq!(Journal::resume(&path).unwrap().replay_len(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_mid_file_record_is_counted_and_later_records_survive() {
        let dir = std::env::temp_dir().join("nachos-journal-corrupt-unit");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("j.jsonl");
        let mut recs = Vec::new();
        for i in 0..4u64 {
            let mut r = demo_record(i);
            r.key = RunKey(0x1000 + i);
            recs.push(r);
        }
        {
            let j = Journal::create(&path).unwrap();
            for r in &recs {
                j.append(r).unwrap();
            }
        }
        // Flip one byte inside the *second* record — mid-file, not the
        // tail — deep enough to land in the JSON payload.
        let mut bytes = std::fs::read(&path).unwrap();
        let line_starts: Vec<usize> = std::iter::once(0)
            .chain(
                bytes
                    .iter()
                    .enumerate()
                    .filter(|(_, b)| **b == b'\n')
                    .map(|(i, _)| i + 1),
            )
            .collect();
        bytes[line_starts[1] + 40] ^= 0x20;
        std::fs::write(&path, &bytes).unwrap();

        let j = Journal::resume(&path).unwrap();
        assert_eq!(j.corrupt(), 1, "the flipped record is detected");
        assert_eq!(j.skipped(), 1);
        assert_eq!(j.replay_len(), 3, "records after the corruption survive");
        assert!(
            j.lookup(recs[1].key).is_none(),
            "the corrupt cell re-executes"
        );
        for r in [&recs[0], &recs[2], &recs[3]] {
            assert!(replays(&j, r));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn invalid_utf8_line_never_aborts_the_load() {
        let dir = std::env::temp_dir().join("nachos-journal-utf8-unit");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("j.jsonl");
        let rec = demo_record(3);
        {
            let j = Journal::create(&path).unwrap();
            j.append(&rec).unwrap();
        }
        let mut bytes = b"\xff\xfe garbage \xff\n".to_vec();
        bytes.extend_from_slice(&std::fs::read(&path).unwrap());
        std::fs::write(&path, &bytes).unwrap();
        let j = Journal::resume(&path).unwrap();
        assert_eq!(j.replay_len(), 1);
        assert_eq!(j.skipped(), 1);
        assert_eq!(j.corrupt(), 1);
        assert!(replays(&j, &rec));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The satellite regression for corrupt oversized records: a frame
    /// header fused onto a payload far beyond [`MAX_RECORD_LEN`] (the
    /// on-disk shape a multi-GiB corruption takes — the discard path is
    /// constant-memory, so only the cap-crossing needs exercising) is
    /// skipped and counted, and every record on either side survives.
    #[test]
    fn resume_skips_and_counts_an_oversized_corrupt_record() {
        let dir = std::env::temp_dir().join("nachos-journal-oversize-unit");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("j.jsonl");
        let rec_a = demo_record(21);
        let mut rec_b = demo_record(23);
        rec_b.key = RunKey(0xbeef);
        {
            let j = Journal::create(&path).unwrap();
            j.append(&rec_a).unwrap();
        }
        {
            use std::io::Write as _;
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            // A plausible-looking frame header whose record body claims
            // gigabytes: 16 hex digits, a space, then an endless line.
            f.write_all(b"ffffffffffffffff ").unwrap();
            let chunk = vec![b'x'; 1 << 20];
            for _ in 0..(MAX_RECORD_LEN / (1 << 20) + 3) {
                f.write_all(&chunk).unwrap();
            }
            f.write_all(b"\n").unwrap();
        }
        {
            let j = Journal::resume(&path).unwrap();
            j.append(&rec_b).unwrap();
        }
        let j = Journal::resume(&path).unwrap();
        assert_eq!(j.replay_len(), 2, "records on both sides survive");
        assert_eq!(j.skipped(), 1, "the oversized line is skipped once");
        assert_eq!(j.corrupt(), 1, "and counted as corruption");
        assert!(replays(&j, &rec_a));
        assert!(replays(&j, &rec_b));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A record carrying a ~1 MiB `detail` (a long deadlock dump, say)
    /// round-trips through [`Journal::resume`] quickly: replay parses
    /// each line in linear time.
    #[test]
    fn megabyte_detail_round_trips_through_resume() {
        let dir = std::env::temp_dir().join("nachos-journal-bigdetail-unit");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("j.jsonl");
        let mut rec = demo_record(31);
        rec.outcome.detail = Some("stalled op \u{2192} waiting on token\n".repeat(1 << 15));
        assert!(rec.to_line().len() > 1 << 20);
        Journal::create(&path).unwrap().append(&rec).unwrap();
        let t0 = std::time::Instant::now();
        let j = Journal::resume(&path).unwrap();
        let elapsed = t0.elapsed();
        assert_eq!(j.skipped(), 0);
        assert!(replays(&j, &rec));
        assert!(
            elapsed < std::time::Duration::from_secs(5),
            "resuming a 1 MiB record took {elapsed:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A checksum-valid record whose energy overflows `f64` is unusable,
    /// not an infinity that would abort the report writer on replay.
    #[test]
    fn out_of_range_float_is_unusable_not_infinite() {
        let line = demo_record(5).to_line();
        let payload = checksum_unframe(line.trim_end()).unwrap();
        assert!(payload.contains("\"compute\": 1.5"));
        let forged = checksum_frame(&payload.replace("\"compute\": 1.5", "\"compute\": 1e999"));
        assert_eq!(
            RunRecord::parse_line(&forged).err(),
            Some(LineError::Unusable)
        );
    }
}
