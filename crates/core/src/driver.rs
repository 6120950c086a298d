//! High-level driver: compile a region for a backend and simulate it.

use crate::config::{Backend, SimConfig};
use crate::energy::EnergyModel;
use crate::engine::{simulate_in, simulate_with_telemetry, SimArena, SimResult, TelemetrySink};
use crate::error::SimError;
use nachos_alias::{compile, Analysis, StageConfig};
use nachos_cgra::PlaceError;
use nachos_ir::{Binding, Region};

/// The outcome of compiling and simulating one region under one backend.
#[derive(Clone, Debug)]
pub struct ExperimentRun {
    /// Compiler analysis (absent for OPT-LSQ, which needs no MDEs).
    pub analysis: Option<Analysis>,
    /// Simulation result.
    pub sim: SimResult,
}

/// A region prepared for simulation under one backend class: MDEs
/// compiled (and audited) for the NACHOS backends, or stripped and
/// rewired for OPT-LSQ. Compilation is deterministic in `(region,
/// stages, optimize, uses_mdes)`, so a `CompiledRegion` can be reused
/// across backends that share those inputs — the sweep harness compiles
/// each workload once per distinct stage configuration instead of once
/// per cell.
#[derive(Clone, Debug)]
pub struct CompiledRegion {
    /// The compiled (or de-MDE'd) region, ready for `simulate`.
    pub region: Region,
    /// Compiler analysis (absent for OPT-LSQ, which needs no MDEs).
    pub analysis: Option<Analysis>,
}

/// Compiles `region` as `backend` requires: the full MDE pipeline plus
/// post-compile audit for the NACHOS backends (honouring
/// `config.optimize`), or MDE stripping + scratchpad dependency wiring
/// for OPT-LSQ.
///
/// # Errors
///
/// Returns [`SimError::Validation`] for malformed input graphs,
/// [`SimError::Placement`] for graphs with more nodes than the grid has
/// functional units, and [`SimError::Audit`] when the independent
/// post-compile audit rejects the analysis.
pub fn compile_for_backend(
    region: &Region,
    backend: Backend,
    config: &SimConfig,
    stages: StageConfig,
) -> Result<CompiledRegion, SimError> {
    // Fail fast on malformed input graphs before spending compile and
    // placement work; `simulate` re-validates the compiled region.
    nachos_ir::validate_region(region).map_err(SimError::Validation)?;
    // A region that cannot be placed is rejected before any alias work:
    // on a graph far beyond the grid the compile and audit alone would
    // cost seconds. This is the error placement itself would return.
    let (nodes, capacity) = (region.dfg.num_nodes(), config.grid.capacity());
    if nodes > capacity {
        return Err(SimError::Placement(PlaceError::TooManyNodes {
            nodes,
            capacity,
        }));
    }
    let mut compiled = region.clone();
    let analysis = if backend.uses_mdes() {
        let mut analysis = compile(&mut compiled, stages);
        if config.optimize {
            nachos_alias::optimize(&mut compiled, &mut analysis);
        }
        // Post-compile audit: independently re-verify every alias verdict
        // and ordering chain — and, when the optimizer ran, every rewrite
        // certificate (`CertLint`) — before trusting the MDEs with
        // correctness. The quick configuration skips the enumeration
        // oracle, so this costs a small fraction of the compile itself.
        let errors: Vec<_> = nachos_alias::audit_with(
            &compiled,
            &analysis,
            stages,
            &nachos_alias::AuditConfig::quick(),
        )
        .into_iter()
        .filter(nachos_alias::Diagnostic::is_error)
        .collect();
        if !errors.is_empty() {
            return Err(SimError::Audit(errors));
        }
        Some(analysis)
    } else {
        // OPT-LSQ needs no MDEs for main memory, but scratchpad data
        // bypasses the LSQ in every scheme, so its compiler-known
        // dependencies must still be wired into the dataflow graph.
        compiled.dfg.clear_mdes();
        nachos_alias::wire_local_deps(&mut compiled);
        None
    };
    Ok(CompiledRegion {
        region: compiled,
        analysis,
    })
}

/// Simulates an already-[compiled](compile_for_backend) region,
/// reusing the state pooled in `arena`. Results are identical to
/// [`run_backend_with_stages_in`] on the original region with the same
/// stage configuration.
///
/// # Errors
///
/// Propagates [`SimError`] from the simulator.
pub fn run_backend_compiled_in(
    arena: &mut SimArena,
    compiled: &CompiledRegion,
    binding: &Binding,
    backend: Backend,
    config: &SimConfig,
    energy: &EnergyModel,
) -> Result<ExperimentRun, SimError> {
    let sim = simulate_in(arena, &compiled.region, binding, backend, config, energy)?;
    Ok(ExperimentRun {
        analysis: compiled.analysis.clone(),
        sim,
    })
}

/// Compiles `region` as required by `backend` (full NACHOS-SW pipeline for
/// the MDE backends, MDE-free for OPT-LSQ) and simulates it.
///
/// # Errors
///
/// Propagates [`SimError`] from the simulator.
pub fn run_backend(
    region: &Region,
    binding: &Binding,
    backend: Backend,
    config: &SimConfig,
    energy: &EnergyModel,
) -> Result<ExperimentRun, SimError> {
    run_backend_with_stages(
        region,
        binding,
        backend,
        config,
        energy,
        StageConfig::full(),
    )
}

/// Like [`run_backend`] but with an explicit compiler stage configuration
/// (used for the baseline-compiler experiments of Figures 12 and 16).
///
/// # Errors
///
/// Propagates [`SimError`] from the simulator.
pub fn run_backend_with_stages(
    region: &Region,
    binding: &Binding,
    backend: Backend,
    config: &SimConfig,
    energy: &EnergyModel,
    stages: StageConfig,
) -> Result<ExperimentRun, SimError> {
    let mut arena = SimArena::new();
    run_backend_with_stages_in(&mut arena, region, binding, backend, config, energy, stages)
}

/// Arena-reusing variant of [`run_backend_with_stages`].
///
/// # Errors
///
/// Propagates [`SimError`] from the simulator.
pub fn run_backend_with_stages_in(
    arena: &mut SimArena,
    region: &Region,
    binding: &Binding,
    backend: Backend,
    config: &SimConfig,
    energy: &EnergyModel,
    stages: StageConfig,
) -> Result<ExperimentRun, SimError> {
    let compiled = compile_for_backend(region, backend, config, stages)?;
    let sim = simulate_in(arena, &compiled.region, binding, backend, config, energy)?;
    Ok(ExperimentRun {
        analysis: compiled.analysis,
        sim,
    })
}

/// Like [`run_backend_with_stages_in`], with a [`TelemetrySink`]
/// observing the simulation (see [`crate::simulate_with_telemetry`]).
/// The sink never changes the result: cycles, stall counters and report
/// bytes are bit-identical to the unobserved run.
///
/// # Errors
///
/// Propagates [`SimError`] from the simulator.
#[allow(clippy::too_many_arguments)]
pub fn run_backend_observed_in(
    arena: &mut SimArena,
    region: &Region,
    binding: &Binding,
    backend: Backend,
    config: &SimConfig,
    energy: &EnergyModel,
    stages: StageConfig,
    sink: &mut dyn TelemetrySink,
) -> Result<ExperimentRun, SimError> {
    let compiled = compile_for_backend(region, backend, config, stages)?;
    let sim = simulate_with_telemetry(
        arena,
        &compiled.region,
        binding,
        backend,
        config,
        energy,
        sink,
    )?;
    Ok(ExperimentRun {
        analysis: compiled.analysis,
        sim,
    })
}

/// Runs all three backends on the same region/binding, in the paper's
/// comparison order `[OPT-LSQ, NACHOS-SW, NACHOS]`.
///
/// # Errors
///
/// Propagates the first [`SimError`] encountered.
pub fn run_all_backends(
    region: &Region,
    binding: &Binding,
    config: &SimConfig,
    energy: &EnergyModel,
) -> Result<[ExperimentRun; 3], SimError> {
    Ok([
        run_backend(region, binding, Backend::OptLsq, config, energy)?,
        run_backend(region, binding, Backend::NachosSw, config, energy)?,
        run_backend(region, binding, Backend::Nachos, config, energy)?,
    ])
}

/// Percent slowdown of `test` relative to `baseline` cycle counts
/// (negative = speedup), the normalization of Figures 11, 12 and 15.
#[must_use]
pub fn pct_slowdown(test_cycles: u64, baseline_cycles: u64) -> f64 {
    if baseline_cycles == 0 {
        0.0
    } else {
        100.0 * (test_cycles as f64 - baseline_cycles as f64) / baseline_cycles as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nachos_ir::{AffineExpr, IntOp, MemRef, Provenance, RegionBuilder};

    /// A region of `nodes` nodes: two ambiguous stores and a load (so the
    /// MDE pipeline has MAY pairs to work on) plus a chain of adds.
    fn region_of(nodes: usize) -> Region {
        let mut b = RegionBuilder::new("oversized");
        let a0 = b.arg(0, Provenance::Unknown);
        let a1 = b.arg(1, Provenance::Unknown);
        let m = |base| MemRef::affine(base, AffineExpr::zero());
        let mut last = b.load(m(a0), &[]);
        b.store(m(a1), &[]);
        b.store(m(a0), &[]);
        for _ in 3..nodes {
            last = b.int_op(IntOp::Add, &[last]);
        }
        let r = b.finish();
        assert_eq!(r.dfg.num_nodes(), nodes);
        r
    }

    #[test]
    fn oversized_regions_are_rejected_before_compiling() {
        let config = SimConfig::default();
        let capacity = config.grid.capacity();
        assert_eq!(capacity, 1024);
        let over = region_of(capacity + 1);
        for backend in [Backend::NachosSw, Backend::OptLsq] {
            let err = compile_for_backend(&over, backend, &config, StageConfig::full())
                .expect_err("a region over the grid capacity cannot be placed");
            let want = PlaceError::TooManyNodes {
                nodes: capacity + 1,
                capacity,
            };
            assert!(
                matches!(&err, SimError::Placement(e) if *e == want),
                "{backend:?}: {err}"
            );
            // A region that just fits still compiles.
            compile_for_backend(&region_of(capacity), backend, &config, StageConfig::full())
                .unwrap_or_else(|e| panic!("{backend:?}: {e}"));
        }
    }

    #[test]
    fn slowdown_sign_convention() {
        assert_eq!(pct_slowdown(110, 100), 10.0);
        assert_eq!(pct_slowdown(90, 100), -10.0);
        assert_eq!(pct_slowdown(100, 0), 0.0);
    }
}
