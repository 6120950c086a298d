//! Property: journal replay is insensitive to completion order.
//!
//! Workers race, so the order in which cells reach the journal is a
//! scheduling accident — two interrupted runs of the same sweep can leave
//! the same records in any permutation (and, after a crash-retry, with
//! benign duplicates). Resuming from any such journal must replay every
//! cell and reproduce the uninterrupted report byte for byte.

use std::path::PathBuf;
use std::sync::OnceLock;

use nachos::sweep::journal::Journal;
use nachos::sweep::{run_sweep, run_sweep_journaled, SweepConfig, SweepJob};
use nachos::{Backend, FaultKind, FaultPlan, FaultSpec};
use nachos_ir::{AffineExpr, Binding, IntOp, MemRef, RegionBuilder};
use nachos_workloads::{by_name, generate};
use proptest::prelude::*;

/// Shared fixture: the jobs, their uninterrupted report, and the journal
/// lines a complete journaled run leaves behind. Built once — every case
/// only reorders the lines and resumes.
struct Fixture {
    jobs: Vec<SweepJob>,
    cfg: SweepConfig,
    clean_json: String,
    lines: Vec<String>,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let mut jobs = Vec::new();
        for name in ["gzip", "fft-2d"] {
            let w = generate(&by_name(name).expect("workload"));
            jobs.push(SweepJob::new(w.spec.name, w.region, w.binding));
        }
        // One transient cell (a retried deadlock) so multi-attempt logs
        // are part of what the permutation must preserve: two stores to
        // one address put an ORDER token in flight, and dropping it
        // deadlocks the NACHOS-SW run on every attempt.
        let mut b = RegionBuilder::new("drop-token");
        let g = b.global("g", 64, 0);
        let m = MemRef::affine(g, AffineExpr::zero());
        let x = b.input();
        b.store(m.clone(), &[x]);
        let y = b.int_op(IntOp::Add, &[x]);
        b.store(m, &[y]);
        jobs.push(
            SweepJob::new(
                "drop-token",
                b.finish(),
                Binding {
                    base_addrs: vec![0x1_0000],
                    ..Binding::default()
                },
            )
            .with_fault(FaultPlan::single(
                FaultSpec::new(FaultKind::DropToken, 0).on_backend(Backend::NachosSw),
            )),
        );
        let cfg = SweepConfig::default()
            .with_invocations(4)
            .with_retries(1)
            .with_threads(1);
        let clean_json = run_sweep(&jobs, &cfg).to_json();

        let path = scratch("seed-journal.jsonl");
        let journal = Journal::create(&path).expect("create journal");
        let _ = run_sweep_journaled(&jobs, &cfg, Some(&journal), None);
        drop(journal);
        let lines: Vec<String> = std::fs::read_to_string(&path)
            .expect("read journal")
            .lines()
            .map(str::to_owned)
            .collect();
        std::fs::remove_file(&path).ok();
        assert_eq!(lines.len(), 3 * cfg.variants.len());
        Fixture {
            jobs,
            cfg,
            clean_json,
            lines,
        }
    })
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("nachos-prop-resume");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name)
}

/// Fisher–Yates driven by a splitmix64 stream from the case's seed.
fn shuffle<T>(items: &mut [T], mut seed: u64) {
    let mut next = || {
        seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    for i in (1..items.len()).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any permutation of the journal's records — optionally with one
    /// record duplicated, as a crash between append and re-claim can
    /// produce — resumes to the uninterrupted report, executing nothing.
    #[test]
    fn replay_is_insensitive_to_journal_record_order(
        seed in any::<u64>(),
        dup in 0usize..32,
    ) {
        let fx = fixture();
        let mut lines = fx.lines.clone();
        // A duplicated record is benign: identical content, last wins.
        let dup_line = lines[dup % lines.len()].clone();
        lines.push(dup_line);
        shuffle(&mut lines, seed);

        let path = scratch(&format!("case-{seed:016x}-{dup}.jsonl"));
        std::fs::write(&path, format!("{}\n", lines.join("\n"))).expect("write journal");
        let journal = Journal::resume(&path).expect("resume journal");
        prop_assert_eq!(journal.replay_len(), fx.lines.len());
        prop_assert_eq!(journal.skipped(), 0);

        let (resumed, stats) = run_sweep_journaled(&fx.jobs, &fx.cfg, Some(&journal), None);
        prop_assert_eq!(stats.executed, 0, "every cell must replay");
        prop_assert_eq!(stats.replayed, fx.lines.len());
        prop_assert_eq!(resumed.to_json(), fx.clean_json.clone());
        std::fs::remove_file(&path).ok();
    }
}
