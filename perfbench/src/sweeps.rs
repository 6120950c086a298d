//! The in-process sweep workloads: `table2-sim` and `paths-compile`.
//!
//! A pass is `run_sweep` on 2 worker threads, then `to_json` and
//! `write_atomic` of the report; an operation is one (job, variant)
//! cell. The set-up generates the inputs and runs one warm-up pass, whose
//! result every later pass is checked against. The end-to-end run times
//! passes back to back; the traced run alternates an untraced and a
//! traced single-threaded [`replay`] of the same work.

use crate::inputs::sweep_jobs;
use crate::replay::{facts_of, replay, CellFacts, ReplayOut};
use crate::stats::{beyond, median, quantile};
use crate::trace::{self, Tracer};
use crate::{peak_rss_mib, per_layer, Outcome, RunArgs};
use nachos::json::write_atomic;
use nachos::sweep::{run_sweep, SweepConfig, SweepJob};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Fewest passes (or traced/untraced pairs) a run makes, however short.
const MIN_PASSES: usize = 3;
/// Times the set-up (inputs plus a warm-up pass) is repeated;
/// `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Which sweep workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// 27 hottest-path regions × 5 variants at 256 invocations.
    Table2Sim,
    /// 135 regions × 5 variants at 1 invocation, optimizer on.
    PathsCompile,
}

impl Kind {
    /// How many paths of each Table II row the workload sweeps.
    #[must_use]
    pub fn paths(self) -> u32 {
        match self {
            Kind::Table2Sim => 1,
            Kind::PathsCompile => 5,
        }
    }

    /// The sweep configuration: the bench matrix plus IDEAL, 2 threads.
    #[must_use]
    pub fn config(self) -> SweepConfig {
        let (invocations, optimize) = match self {
            Kind::Table2Sim => (256, false),
            Kind::PathsCompile => (1, true),
        };
        nachos_bench::suite_config(invocations, 2, true).with_optimize(optimize)
    }
}

/// Generates the inputs and runs one warm-up pass (checked, untimed as
/// a pass); returns the jobs, the warm-up's cell facts and report, and
/// the seconds the whole set-up took.
fn setup(kind: Kind, cfg: &SweepConfig, seed: u64, out: &Path) -> Result<Setup, String> {
    let t0 = Instant::now();
    let jobs = sweep_jobs(kind.paths(), seed);
    let (_, facts, report) = pass(&jobs, cfg, out)?;
    Ok(Setup {
        jobs,
        facts,
        report,
        secs: t0.elapsed().as_secs_f64(),
    })
}

struct Setup {
    jobs: Vec<SweepJob>,
    facts: Vec<Vec<CellFacts>>,
    report: String,
    secs: f64,
}

/// One end-to-end pass; returns its wall time, per-cell facts and report.
fn pass(
    jobs: &[SweepJob],
    cfg: &SweepConfig,
    out: &Path,
) -> Result<(f64, Vec<Vec<CellFacts>>, String), String> {
    let t0 = Instant::now();
    let sweep = run_sweep(jobs, cfg);
    let json = sweep.to_json();
    write_atomic(out, &json).map_err(|e| format!("report write {}: {e}", out.display()))?;
    let wall = t0.elapsed().as_secs_f64();
    Ok((wall, facts_of(&sweep), json))
}

fn cell_count(facts: &[Vec<CellFacts>]) -> u64 {
    facts.iter().map(Vec::len).sum::<usize>() as u64
}

/// Cells of `got` that failed or differ from `expected` (a missing
/// cell counts as failed).
fn failed_cells(got: &[Vec<CellFacts>], expected: &[Vec<CellFacts>]) -> u64 {
    let n = |f: &[Vec<CellFacts>]| f.iter().map(Vec::len).sum::<usize>();
    let missing = n(expected).abs_diff(n(got));
    let bad = got
        .iter()
        .flatten()
        .zip(expected.iter().flatten())
        .filter(|(g, e)| !g.ok || !e.ok || g != e)
        .count();
    (bad + missing) as u64
}

/// Runs a sweep workload.
///
/// # Errors
///
/// Report-write failures, which stop the run before it can measure.
pub fn run(kind: Kind, args: &RunArgs) -> Result<Outcome, String> {
    let cfg = kind.config();
    let out = args.work_dir.join("report.json");
    let mut o = Outcome::default();
    // The traced run reports no `setup_s`; its one warm-up pass is the
    // expected result the replays are checked against.
    let reps = if args.smoke || args.trace {
        1
    } else {
        SETUP_REPS
    };
    let mut times = Vec::with_capacity(reps);
    let mut ready = None;
    for _ in 0..reps {
        let s = setup(kind, &cfg, args.seed, &out)?;
        o.attempted += cell_count(&s.facts);
        o.failed += failed_cells(&s.facts, &s.facts);
        times.push(s.secs);
        ready = Some(s);
    }
    let ready = ready.expect("at least one set-up ran");
    if args.trace {
        traced(kind, args, &cfg, &ready, &mut o)?;
    } else {
        o.set("setup_s", median(&times));
        end_to_end(args, &ready, &cfg, &mut o)?;
    }
    Ok(o)
}

/// Times passes back to back, each checked against the warm-up pass.
fn end_to_end(
    args: &RunArgs,
    ready: &Setup,
    cfg: &SweepConfig,
    o: &mut Outcome,
) -> Result<(), String> {
    let out = args.work_dir.join("report.json");
    let jobs = &ready.jobs;
    let (mut cells_s, mut events_s, mut jobs_s, mut lat_ms) = (vec![], vec![], vec![], vec![]);
    let start = Instant::now();
    let min_passes = if args.smoke { 1 } else { MIN_PASSES };
    while cells_s.len() < min_passes || start.elapsed() < args.seconds {
        let (wall, facts, _) = pass(jobs, cfg, &out)?;
        let cells = cell_count(&facts);
        let events: u64 = facts.iter().flatten().map(|f| f.queue_events).sum();
        o.attempted += cells;
        o.failed += failed_cells(&facts, &ready.facts);
        cells_s.push(cells as f64 / wall);
        events_s.push(events as f64 / wall);
        jobs_s.push(jobs.len() as f64 / wall);
        lat_ms.push(wall * 1e3);
    }
    eprintln!(
        "perfbench: {} passes of {} jobs x {} variants; a job here is one full pass, \
         so job_p90_ms has {} samples beyond it; pass ms: {:.1?}",
        lat_ms.len(),
        jobs.len(),
        cfg.variants.len(),
        beyond(&lat_ms, 0.9),
        lat_ms,
    );
    o.set("cells_per_s", median(&cells_s));
    o.set("sim_events_per_s", median(&events_s));
    o.set("jobs_per_s", median(&jobs_s));
    o.set("job_p50_ms", median(&lat_ms));
    o.set("job_p90_ms", quantile(&lat_ms, 0.9).unwrap_or(0.0));
    o.set("peak_rss_mb", peak_rss_mib("self").unwrap_or(0.0));
    Ok(())
}

/// Checks one replayed pass against the expected pass; returns failed
/// cells (every cell, when the report bytes differ).
fn check_replay(r: &ReplayOut, facts: &[Vec<CellFacts>], report: &str) -> u64 {
    if r.report == report {
        failed_cells(&r.facts, facts)
    } else {
        cell_count(facts)
    }
}

fn traced(
    kind: Kind,
    args: &RunArgs,
    cfg: &SweepConfig,
    ready: &Setup,
    o: &mut Outcome,
) -> Result<(), String> {
    let out = args.work_dir.join("report.json");
    let (expected, report) = (&ready.facts, &ready.report);
    let cells = cell_count(expected);
    let make = || sweep_jobs(kind.paths(), args.seed);
    let mut plain_walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut self_ms: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut last = None;
    let mut spans_out = String::new();
    let start = Instant::now();
    let min_passes = if args.smoke { 1 } else { MIN_PASSES };
    while traced_walls.len() < min_passes || start.elapsed() < args.seconds {
        // Alternate which side goes first so drift hits both equally.
        let traced_first = traced_walls.len() % 2 == 0;
        for on in [traced_first, !traced_first] {
            let r = replay(make, cfg, Tracer::new(on), &out)
                .map_err(|e| format!("report write {}: {e}", out.display()))?;
            o.attempted += cells;
            o.failed += check_replay(&r, expected, report);
            if !on {
                plain_walls.push(r.wall * 1e3);
                continue;
            }
            traced_walls.push(r.wall * 1e3);
            trace::write_jsonl(&mut spans_out, traced_walls.len() - 1, &r.spans);
            for (name, ms) in trace::self_ms_by_name(&r.spans) {
                self_ms.entry(name).or_default().push(ms);
            }
            last = Some(r);
        }
    }
    let last = last.expect("at least one traced pass ran");
    trace::write_file(&args.trace_out, &spans_out);

    let layer = |name: &str| self_ms.get(name).map_or(0.0, |v| median(v));
    for (name, _) in per_layer() {
        if let Some(span) = name.strip_suffix("_ms") {
            if self_ms.contains_key(span) {
                o.set(&name, layer(span));
            }
        }
    }
    o.set("sweep.unattributed_ms", layer("pass"));
    o.set("trace.wall_ms", median(&traced_walls));
    o.set(
        "trace.overhead_ms",
        median(&traced_walls) - median(&plain_walls),
    );
    let (mut l1_hits, mut l1_all) = (0u64, 0u64);
    let mut by_label = BTreeMap::new();
    for (v, e) in cfg.variants.iter().zip(&last.engine) {
        let label = &v.label;
        o.set(&format!("engine.{label}.events"), e.events as f64);
        o.set(&format!("engine.{label}.cycles"), e.cycles as f64);
        let ns = layer(&format!("engine.{label}")) * 1e6;
        o.set(
            &format!("engine.{label}.ns_per_event"),
            ns / e.events.max(1) as f64,
        );
        l1_hits += e.l1_hits;
        l1_all += e.l1_hits + e.l1_misses;
        by_label.insert(label.as_str(), e);
    }
    if let Some(lsq) = by_label.get("opt-lsq") {
        o.set("engine.opt-lsq.cam_searches", lsq.cam_searches as f64);
        o.set(
            "engine.opt-lsq.bloom_hit_ratio",
            lsq.bloom_hits as f64 / lsq.bloom_queries.max(1) as f64,
        );
    }
    if let Some(hw) = by_label.get("nachos") {
        o.set("engine.nachos.may_checks", hw.may_checks as f64);
    }
    o.set("engine.l1_hit_ratio", l1_hits as f64 / l1_all.max(1) as f64);
    let a = &last.alias;
    o.set("alias.may_pairs.full", a.may_pairs_full as f64);
    o.set("alias.may_pairs.baseline", a.may_pairs_baseline as f64);
    o.set("alias.mdes.full", a.mdes_full as f64);
    o.set("alias.mdes.baseline", a.mdes_baseline as f64);
    o.set("alias.optimize.order_removed", a.order_removed as f64);
    o.set("alias.optimize.may_coalesced", a.may_coalesced as f64);
    o.set("alias.audit.errors", a.audit_errors as f64);

    let attributed: f64 = self_ms
        .iter()
        .filter(|(n, _)| *n != "pass")
        .map(|(_, v)| median(v))
        .sum();
    eprintln!(
        "perfbench: {} traced passes; median traced wall {:.3} ms = {:.3} ms in layer self \
         times + {:.3} ms unattributed (medians taken per layer)",
        traced_walls.len(),
        median(&traced_walls),
        attributed,
        layer("pass"),
    );
    Ok(())
}
