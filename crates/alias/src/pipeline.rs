//! The NACHOS-SW compiler pipeline: stages 1–4 plus MDE planning.

use crate::matrix::{AliasMatrix, LabelCounts};
use crate::stage3::MdePlan;
use crate::{stage1, stage2, stage3, stage4};
use nachos_ir::Region;

/// Which refinement stages to run. Stage 1 always runs; the paper's
/// *baseline compiler* is Stage 1 + Stage 3 (Figures 12 and 16), and full
/// NACHOS-SW enables all four.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StageConfig {
    /// Stage 2: inter-procedural provenance (MAY→NO).
    pub stage2: bool,
    /// Stage 3: redundancy pruning of MDEs.
    pub stage3: bool,
    /// Stage 4: polyhedral dependence testing (MAY→NO).
    pub stage4: bool,
}

impl StageConfig {
    /// All four stages — full NACHOS-SW.
    #[must_use]
    pub fn full() -> Self {
        Self {
            stage2: true,
            stage3: true,
            stage4: true,
        }
    }

    /// Stage 1 + Stage 3 only — the paper's baseline compiler.
    #[must_use]
    pub fn baseline() -> Self {
        Self {
            stage2: false,
            stage3: true,
            stage4: false,
        }
    }

    /// Stage 1 only, no pruning — for ablation studies.
    #[must_use]
    pub fn stage1_only() -> Self {
        Self {
            stage2: false,
            stage3: false,
            stage4: false,
        }
    }
}

impl Default for StageConfig {
    fn default() -> Self {
        Self::full()
    }
}

/// Per-stage label statistics collected while analyzing a region.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct AnalysisReport {
    /// Region name.
    pub region: String,
    /// Number of disambiguation-relevant memory operations.
    pub num_mem_ops: usize,
    /// Number of tracked (non-LD-LD) pairs.
    pub num_pairs: usize,
    /// Labels after Stage 1.
    pub after_stage1: LabelCounts,
    /// MAY pairs refined by Stage 2 (0 when disabled).
    pub stage2_refined: usize,
    /// Labels after Stage 2.
    pub after_stage2: LabelCounts,
    /// MAY pairs refined by Stage 4 (0 when disabled).
    pub stage4_refined: usize,
    /// Final labels after all refinement stages.
    pub final_labels: LabelCounts,
    /// Relations dropped as redundant by Stage 3 (0 when disabled).
    pub pruned: usize,
    /// Enforced MDE counts: (order, forward, may).
    pub mdes: (usize, usize, usize),
}

impl AnalysisReport {
    /// Total enforced MDEs.
    #[must_use]
    pub fn num_mdes(&self) -> usize {
        self.mdes.0 + self.mdes.1 + self.mdes.2
    }

    /// Enforced MAY edges.
    #[must_use]
    pub fn num_may_mdes(&self) -> usize {
        self.mdes.2
    }

    /// `true` if the compiler fully resolved every dependence (no MAY
    /// edges survive) — the "no energy overhead" class of Figure 17.
    #[must_use]
    pub fn fully_resolved(&self) -> bool {
        self.mdes.2 == 0
    }
}

/// The product of analyzing a region: the labeled matrix, the MDE plan and
/// the per-stage report.
#[derive(Clone, Debug)]
pub struct Analysis {
    /// Final pairwise labels.
    pub matrix: AliasMatrix,
    /// The MDEs to enforce.
    pub plan: MdePlan,
    /// Per-stage statistics.
    pub report: AnalysisReport,
    /// Certificates and counters from the post-pipeline MDE optimizer
    /// (`None` until [`crate::optimize`] has run on this analysis).
    pub opt: Option<crate::optimize::OptOutcome>,
}

/// Runs the configured stages over a region without mutating it.
#[must_use]
pub fn analyze(region: &Region, config: StageConfig) -> Analysis {
    let mut matrix = AliasMatrix::new(region);
    let mut report = AnalysisReport {
        region: region.name.clone(),
        num_mem_ops: matrix.num_ops(),
        num_pairs: matrix.num_tracked_pairs(),
        ..AnalysisReport::default()
    };

    stage1::run(region, &mut matrix);
    report.after_stage1 = matrix.label_counts();

    if config.stage2 {
        report.stage2_refined = stage2::run(region, &mut matrix);
    }
    report.after_stage2 = matrix.label_counts();

    if config.stage4 {
        report.stage4_refined = stage4::run(region, &mut matrix);
    }
    report.final_labels = matrix.label_counts();

    let plan = stage3::plan_mdes(region, &matrix, config.stage3);
    report.pruned = plan.num_pruned();
    report.mdes = (plan.order.len(), plan.forward.len(), plan.may.len());

    Analysis {
        matrix,
        plan,
        report,
        opt: None,
    }
}

/// Analyzes a region and inserts the planned MDEs into its DFG, together
/// with the (energy-free) dependence edges for scratchpad data
/// ([`crate::wire_local_deps`]). Any MDEs from a previous compilation are
/// removed first, so re-compiling with a different [`StageConfig`] is
/// safe.
pub fn compile(region: &mut Region, config: StageConfig) -> Analysis {
    region.dfg.clear_mdes();
    let analysis = analyze(region, config);
    analysis.plan.apply(region);
    crate::local::wire_local_deps(region);
    analysis
}

/// Distribution of MAY-alias fan-in: for each disambiguation-relevant
/// memory operation, how many *older* operations it MAY-depends on in the
/// final plan (Figure 14). Index `i` of the returned vector is the fan-in
/// of the matrix's `i`-th operation.
#[must_use]
pub fn may_fanin(analysis: &Analysis) -> Vec<usize> {
    let ops = analysis.matrix.ops();
    let mut index_of = vec![None; ops.iter().map(|n| n.index() + 1).max().unwrap_or(0)];
    for (i, n) in ops.iter().enumerate() {
        index_of[n.index()] = Some(i);
    }
    let mut fanin = vec![0usize; ops.len()];
    for &(_, younger) in &analysis.plan.may {
        let i = index_of
            .get(younger.index())
            .copied()
            .flatten()
            .expect("plan nodes come from the matrix");
        fanin[i] += 1;
    }
    fanin
}

#[cfg(test)]
mod tests {
    use super::*;
    use nachos_ir::{AffineExpr, EdgeKind, MemRef, Provenance, RegionBuilder};

    fn mixed_region() -> Region {
        let mut b = RegionBuilder::new("mixed");
        let g = b.global("g", 256, 0);
        let a0 = b.arg(0, Provenance::Object(10));
        let a1 = b.arg(1, Provenance::Object(11));
        let m = |o: i64| MemRef::affine(g, AffineExpr::constant_expr(o));
        b.store(m(0), &[]);
        b.load(m(0), &[]);
        b.store(MemRef::affine(a0, AffineExpr::zero()), &[]);
        b.load(MemRef::affine(a1, AffineExpr::zero()), &[]);
        b.finish()
    }

    #[test]
    fn full_pipeline_resolves_provenance() {
        let r = mixed_region();
        let full = analyze(&r, StageConfig::full());
        assert!(full.report.stage2_refined > 0);
        // arg-vs-arg resolved; only the true st/ld dependency survives.
        assert_eq!(full.report.final_labels.may, 0);
        assert!(full.report.fully_resolved());

        let base = analyze(&r, StageConfig::baseline());
        assert_eq!(base.report.stage2_refined, 0);
        assert!(base.report.final_labels.may > 0);
        assert!(!base.report.fully_resolved());
    }

    #[test]
    fn compile_inserts_and_reinserts_edges() {
        let mut r = mixed_region();
        let a1 = compile(&mut r, StageConfig::baseline());
        let mdes_baseline = r.dfg.count_edges(EdgeKind::May)
            + r.dfg.count_edges(EdgeKind::Order)
            + r.dfg.count_edges(EdgeKind::Forward);
        assert_eq!(mdes_baseline, a1.report.num_mdes());
        assert!(r.dfg.count_edges(EdgeKind::May) > 0);

        // Re-compile with the full pipeline: MAY edges disappear.
        let a2 = compile(&mut r, StageConfig::full());
        assert_eq!(r.dfg.count_edges(EdgeKind::May), 0);
        assert_eq!(r.dfg.count_edges(EdgeKind::Forward), a2.plan.forward.len());
    }

    #[test]
    fn report_counts_are_consistent() {
        let r = mixed_region();
        let a = analyze(&r, StageConfig::full());
        let c = a.report.final_labels;
        assert_eq!(c.total(), a.report.num_pairs);
        assert_eq!(
            a.report.num_mdes() + a.report.pruned,
            // Every non-NO relation is either enforced or pruned... except
            // superseded exact ST→LD forwarders, which add an extra order
            // edge. Allow >=.
            a.plan.num_mdes() + a.plan.num_pruned()
        );
    }

    #[test]
    fn fanin_counts_may_parents() {
        let mut b = RegionBuilder::new("fanin");
        let a0 = b.arg(0, Provenance::Unknown);
        let a1 = b.arg(1, Provenance::Unknown);
        let a2 = b.arg(2, Provenance::Unknown);
        b.store(MemRef::affine(a0, AffineExpr::zero()), &[]);
        b.store(MemRef::affine(a1, AffineExpr::zero()), &[]);
        b.load(MemRef::affine(a2, AffineExpr::zero()), &[]);
        let r = b.finish();
        let a = analyze(&r, StageConfig::full());
        let fanin = may_fanin(&a);
        assert_eq!(fanin, vec![0, 1, 2]);
    }

    #[test]
    fn stage1_only_keeps_all_relations() {
        let r = mixed_region();
        let a = analyze(&r, StageConfig::stage1_only());
        assert_eq!(a.report.pruned, 0);
        assert_eq!(a.plan.num_pruned(), 0);
    }
}
