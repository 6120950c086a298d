//! The sweep, cell by cell, with a span around every call into a layer.
//!
//! [`replay`] does the work `run_sweep` does for each job, in the same
//! order and through the same public functions: the reference executor,
//! then per distinct compile (full stages, baseline stages, MDE-free
//! rewire) the steps of `compile_for_backend` — `validate_region`,
//! `nachos_alias::compile`, `optimize`, `audit_with(quick)`,
//! `wire_local_deps` — then `run_backend_compiled_in` per variant with
//! one `SimArena`, the differential check, and finally `to_json` and
//! `write_atomic` of the assembled report. It runs on one thread, so
//! every span is a direct child of the pass and self times add up to
//! the pass's wall time.

use crate::trace::{Span, Tracer};
use nachos::json::write_atomic;
use nachos::reference;
use nachos::sweep::journal::{self, Attempt, RunMetrics};
use nachos::sweep::{
    JobOutcome, RunStatus, SweepConfig, SweepJob, SweepResult, SweepVariant, VariantOutcome,
};
use nachos::{run_backend_compiled_in, CompiledRegion, SimArena, SimConfig};
use nachos_alias::{Analysis, AuditConfig, Diagnostic, StageConfig};
use nachos_ir::Region;
use std::io;
use std::path::Path;
use std::time::Instant;

/// The MDE census of one compile: final label counts, the MDE plan's
/// sizes, and the optimizer's rewrite counters (all zero when it did
/// not run).
pub type Census = [usize; 14];

/// What the untraced sweep and the replay must agree on, per cell.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CellFacts {
    /// The run completed and matched the reference executor.
    pub ok: bool,
    /// Simulated cycles.
    pub cycles: u64,
    /// Calendar-queue events simulated.
    pub queue_events: u64,
    /// MDE census of the compile (absent for MDE-free backends).
    pub census: Option<Census>,
}

/// Census of an analysis as `compile_for_backend` leaves it.
#[must_use]
pub fn census(a: &Analysis) -> Census {
    let labels = a.matrix.label_counts();
    let opt = a.opt.as_ref().map(|o| o.stats).unwrap_or_default();
    [
        labels.no,
        labels.may,
        labels.must,
        a.plan.order.len(),
        a.plan.forward.len(),
        a.plan.may.len(),
        a.plan.pruned_must,
        a.plan.pruned_may,
        usize::from(a.opt.is_some()),
        opt.order_before,
        opt.may_before,
        opt.order_removed,
        opt.may_coalesced,
        opt.may_upgraded_edges,
    ]
}

/// Per-cell facts of a finished sweep, `[job][variant]`.
#[must_use]
pub fn facts_of(sweep: &SweepResult) -> Vec<Vec<CellFacts>> {
    sweep
        .jobs
        .iter()
        .map(|j| {
            j.runs
                .iter()
                .map(|r| CellFacts {
                    ok: r.status == RunStatus::Ok && r.matches_reference(),
                    cycles: r.run.as_ref().map_or(0, |x| x.sim.cycles),
                    queue_events: r.run.as_ref().map_or(0, |x| x.sim.queue_events),
                    census: r.run.as_ref().and_then(|x| x.analysis.as_ref()).map(census),
                })
                .collect()
        })
        .collect()
}

/// Simulated statistics of one variant column, summed over a pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineCounts {
    /// Calendar-queue events.
    pub events: u64,
    /// Simulated cycles.
    pub cycles: u64,
    /// LSQ CAM searches (loads + stores).
    pub cam_searches: u64,
    /// LSQ bloom-filter queries.
    pub bloom_queries: u64,
    /// LSQ bloom-filter hits.
    pub bloom_hits: u64,
    /// Hardware MAY checks.
    pub may_checks: u64,
    /// L1 hits.
    pub l1_hits: u64,
    /// L1 misses.
    pub l1_misses: u64,
}

/// Work counts of the compile layers, summed over a pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AliasCounts {
    /// MAY pairs left by the full-stage compile.
    pub may_pairs_full: u64,
    /// MAY pairs left by the baseline-stage compile.
    pub may_pairs_baseline: u64,
    /// MDEs planned by the full-stage compile.
    pub mdes_full: u64,
    /// MDEs planned by the baseline-stage compile.
    pub mdes_baseline: u64,
    /// ORDER edges the optimizer removed.
    pub order_removed: u64,
    /// MAY edges the optimizer coalesced.
    pub may_coalesced: u64,
    /// Error diagnostics from the post-compile audit.
    pub audit_errors: u64,
}

/// One replayed pass.
#[derive(Debug)]
pub struct ReplayOut {
    /// Wall time of the whole pass, in seconds.
    pub wall: f64,
    /// Per-cell facts, `[job][variant]`.
    pub facts: Vec<Vec<CellFacts>>,
    /// The assembled `nachos-sweep-v4` report.
    pub report: String,
    /// Per-variant simulated statistics, in matrix order.
    pub engine: Vec<EngineCounts>,
    /// Compile-layer counts.
    pub alias: AliasCounts,
    /// The spans recorded (empty when untraced).
    pub spans: Vec<Span>,
}

/// Replays the sweep of `make_jobs()` under `cfg` on one thread and
/// writes its report to `out`. Input generation runs inside the pass (as
/// `workloads.generate`) so its cost is measured with the rest.
///
/// # Errors
///
/// Propagates the report write's I/O error.
pub fn replay(
    make_jobs: impl FnOnce() -> Vec<SweepJob>,
    cfg: &SweepConfig,
    mut t: Tracer,
    out: &Path,
) -> io::Result<ReplayOut> {
    let engine_spans: Vec<String> = cfg
        .variants
        .iter()
        .map(|v| format!("engine.{}", v.label))
        .collect();
    let mut engine = vec![EngineCounts::default(); cfg.variants.len()];
    let mut alias = AliasCounts::default();
    let mut arena = SimArena::new();
    let started = Instant::now();
    t.enter("pass");
    let jobs = t.span("workloads.generate", make_jobs);
    let mut facts = Vec::with_capacity(jobs.len());
    let mut outcomes = Vec::with_capacity(jobs.len());
    for job in &jobs {
        let mut sim_cfg = cfg.sim.clone();
        sim_cfg
            .fault
            .faults
            .extend(job.fault.faults.iter().copied());
        let fingerprint = journal::job_fingerprint(&job.region, &job.binding, &sim_cfg);
        let reference = t.span("reference.execute", || {
            reference::execute(&job.region, &job.binding, sim_cfg.invocations)
        });
        let mut compiles: Vec<(bool, StageConfig, Result<CompiledRegion, String>)> = Vec::new();
        let mut job_facts = Vec::with_capacity(cfg.variants.len());
        let mut runs = Vec::with_capacity(cfg.variants.len());
        for (vi, v) in cfg.variants.iter().enumerate() {
            let key = (v.backend.uses_mdes(), v.stages);
            let slot = match compiles.iter().position(|(m, s, _)| (*m, *s) == key) {
                Some(i) => i,
                None => {
                    let c = compile(&mut t, &job.region, v, &sim_cfg, &mut alias);
                    compiles.push((key.0, key.1, c));
                    compiles.len() - 1
                }
            };
            let attempt_seed = journal::derive_seed(journal::run_key(fingerprint, v), 0);
            let run = match &compiles[slot].2 {
                Err(e) => Err(e.clone()),
                Ok(c) => t
                    .span(&engine_spans[vi], || {
                        run_backend_compiled_in(
                            &mut arena,
                            c,
                            &job.binding,
                            v.backend,
                            &sim_cfg,
                            &cfg.energy,
                        )
                    })
                    .map_err(|e| e.to_string()),
            };
            let (status, run, detail) = match run {
                Err(detail) => (RunStatus::Error, None, Some(detail)),
                Ok(run) => {
                    let diverged = t.span("sweep.diffcheck", || {
                        run.sim.mem != reference.mem
                            || run.sim.loads.digest() != reference.loads.digest()
                    });
                    if diverged {
                        let detail = "diverged from the in-order reference executor";
                        (RunStatus::Mismatch, Some(run), Some(detail.to_owned()))
                    } else {
                        (RunStatus::Ok, Some(run), None)
                    }
                }
            };
            if let Some(r) = &run {
                let e = &mut engine[vi];
                let s = &r.sim;
                e.events += s.queue_events;
                e.cycles += s.cycles;
                e.cam_searches += s.events.lsq_cam_loads + s.events.lsq_cam_stores;
                e.bloom_queries += s.events.lsq_bloom_queries;
                e.bloom_hits += s.events.lsq_bloom_hits;
                e.may_checks += s.events.may_checks;
                e.l1_hits += s.l1.hits;
                e.l1_misses += s.l1.misses;
            }
            job_facts.push(CellFacts {
                ok: status == RunStatus::Ok,
                cycles: run.as_ref().map_or(0, |r| r.sim.cycles),
                queue_events: run.as_ref().map_or(0, |r| r.sim.queue_events),
                census: run.as_ref().and_then(|r| r.analysis.as_ref()).map(census),
            });
            runs.push(outcome(v, status, run, detail, attempt_seed));
        }
        facts.push(job_facts);
        outcomes.push(JobOutcome {
            name: job.name.clone(),
            reference,
            runs,
        });
    }
    let result = SweepResult {
        invocations: cfg.sim.invocations,
        variants: cfg.variants.iter().map(|v| v.label.clone()).collect(),
        jobs: outcomes,
    };
    let report = t.span("sweep.report", || {
        let json = result.to_json();
        write_atomic(out, &json).map(|()| json)
    })?;
    t.exit();
    let wall = started.elapsed().as_secs_f64();
    Ok(ReplayOut {
        wall,
        facts,
        report,
        engine,
        alias,
        spans: t.spans().to_vec(),
    })
}

/// `compile_for_backend`, one public call at a time.
fn compile(
    t: &mut Tracer,
    region: &Region,
    v: &SweepVariant,
    sim: &SimConfig,
    counts: &mut AliasCounts,
) -> Result<CompiledRegion, String> {
    t.span("ir.validate", || nachos_ir::validate_region(region))
        .map_err(|e| format!("validation: {e:?}"))?;
    let mut compiled = region.clone();
    if !v.backend.uses_mdes() {
        t.span("alias.wire_local_deps", || {
            compiled.dfg.clear_mdes();
            nachos_alias::wire_local_deps(&mut compiled);
        });
        return Ok(CompiledRegion {
            region: compiled,
            analysis: None,
        });
    }
    let full = v.stages == StageConfig::full();
    let name = if full {
        "alias.compile.full"
    } else {
        "alias.compile.baseline"
    };
    let mut analysis = t.span(name, || nachos_alias::compile(&mut compiled, v.stages));
    if sim.optimize {
        t.span("alias.optimize", || {
            nachos_alias::optimize(&mut compiled, &mut analysis);
        });
    }
    let errors = t.span("alias.audit", || {
        nachos_alias::audit_with(&compiled, &analysis, v.stages, &AuditConfig::quick())
            .iter()
            .filter(|d| Diagnostic::is_error(d))
            .count()
    });
    let may = analysis.matrix.label_counts().may as u64;
    let mdes = analysis.plan.num_mdes() as u64;
    if full {
        counts.may_pairs_full += may;
        counts.mdes_full += mdes;
    } else {
        counts.may_pairs_baseline += may;
        counts.mdes_baseline += mdes;
    }
    if let Some(o) = &analysis.opt {
        counts.order_removed += o.stats.order_removed as u64;
        counts.may_coalesced += o.stats.may_coalesced as u64;
    }
    counts.audit_errors += errors as u64;
    if errors > 0 {
        return Err(format!("audit rejected the compile with {errors} errors"));
    }
    Ok(CompiledRegion {
        region: compiled,
        analysis: Some(analysis),
    })
}

/// The report entry `run_sweep` records for a cell settled on its
/// first attempt.
fn outcome(
    v: &SweepVariant,
    status: RunStatus,
    run: Option<nachos::ExperimentRun>,
    detail: Option<String>,
    seed: u64,
) -> VariantOutcome {
    VariantOutcome {
        variant: v.label.clone(),
        backend: v.backend,
        status,
        injected: run
            .as_ref()
            .map(|r| r.sim.injected.clone())
            .unwrap_or_default(),
        metrics: run.as_ref().map(RunMetrics::from_run),
        run,
        error: None,
        detail,
        attempts: vec![Attempt { status, seed }],
    }
}
