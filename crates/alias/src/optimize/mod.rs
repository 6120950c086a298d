//! `nachos-opt` — post-pipeline MDE minimization with certificates.
//!
//! The compiler pipeline (stages 1–4 plus planning) decides *which* pairs
//! need ordering; this pass minimizes *how* that ordering is enforced,
//! after the plan has been applied to the DFG:
//!
//! 1. **Stage 5** ([`stage5`]): a symbolic value-range + modular-arithmetic
//!    analysis over iteration counts upgrades residual MAY verdicts to NO
//!    where stages 1–4 lose precision (stepped loops, multi-IV deltas
//!    under ablated configs), deleting the pair's planned MAY edge.
//! 2. **Transitive reduction** ([`reduce`]): ORDER/token edges implied by
//!    the surviving Data ∪ Order ∪ Forward paths are deleted.
//! 3. **Comparator coalescing** ([`coalesce`]): MAY edges whose pairs test
//!    a syntactically congruent address predicate, and which a guaranteed
//!    path orders through a sibling check, are merged into one comparator.
//!
//! Every rewrite emits a [`Certificate`] — the witness path or arithmetic
//! fact justifying it — and the audit's `CertLint` pass re-verifies each
//! certificate *independently* of this module. An unverifiable
//! certificate is a hard `A-E08` error and the driver refuses the region,
//! exactly like any other audit error.
//!
//! The matrix, the plan, the per-stage report and the DFG are mutated in
//! lockstep, so the optimized analysis passes the same accounting and
//! drift lints an unoptimized one does.

mod cert;
mod coalesce;
mod reduce;
mod stage5;
mod witness;

pub use cert::{ArithFact, Certificate, OptOutcome, OptStats};

pub(crate) use stage5::{disjoint_fact, kspace_delta};
pub(crate) use witness::path_valid;

use crate::edgeset::EdgeSet;
use crate::pipeline::Analysis;
use crate::stage3::MdePlan;
use nachos_ir::{EdgeKind, NodeId, Region};

/// Runs the optimizer over a compiled region (the MDE plan must already
/// be applied to the DFG — see [`crate::compile`]). Mutates the region's
/// edges and the analysis in lockstep and records the outcome in
/// `analysis.opt`.
pub fn optimize(region: &mut Region, analysis: &mut Analysis) {
    let mut certs = Vec::new();
    let order_before = analysis.plan.order.len();
    let may_before = analysis.plan.may.len();

    let (may_upgraded, may_upgraded_edges) =
        stage5::run(region, &mut analysis.matrix, &mut analysis.plan, &mut certs);
    let order_removed = reduce::run(region, &analysis.matrix, &mut analysis.plan, &mut certs);
    let may_coalesced = coalesce::run(region, &mut analysis.plan, &mut certs);

    // Lockstep: the report must keep describing the (now smaller) plan
    // and the (possibly relabeled) matrix, or the accounting lint drifts.
    analysis.report.mdes = (
        analysis.plan.order.len(),
        analysis.plan.forward.len(),
        analysis.plan.may.len(),
    );
    analysis.report.final_labels = analysis.matrix.label_counts();

    analysis.opt = Some(OptOutcome {
        certs,
        stats: OptStats {
            order_before,
            may_before,
            order_removed,
            may_coalesced,
            may_upgraded,
            may_upgraded_edges,
        },
    });
}

/// Deletes distinct planned MAY edges from the plan and from the DFG,
/// one order-preserving pass over each.
///
/// # Panics
///
/// Panics if some edge is missing from the plan or the DFG (the
/// optimizer only deletes planned edges, and the plan is applied).
fn remove_may_edges(region: &mut Region, plan: &mut MdePlan, doomed: &[(NodeId, NodeId)]) {
    if doomed.is_empty() {
        return;
    }
    let set = EdgeSet::of_pairs(&region.dfg, doomed, EdgeKind::May);
    let planned = plan.may.len();
    plan.may
        .retain(|&(s, d)| !set.contains(s, d, EdgeKind::May));
    let removed = region
        .dfg
        .retain_edges(|e| !set.contains(e.src, e.dst, e.kind));
    assert!(
        planned - plan.may.len() == doomed.len() && removed == doomed.len(),
        "deleted MAY edges must be planned and present in the compiled DFG"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::AliasLabel;
    use crate::pipeline::{compile, StageConfig};
    use nachos_ir::{AffineExpr, EdgeKind, LoopInfo, MemRef, Provenance, Region, RegionBuilder};

    fn compile_opt(region: &mut Region, config: StageConfig) -> Analysis {
        let mut analysis = compile(region, config);
        optimize(region, &mut analysis);
        analysis
    }

    /// Two stores to one unknown-provenance location, with independent
    /// data chains, plus a third store the first two both reach: stage 3
    /// plans ORDER edges st0→st1 and st1→st2 (and prunes st0→st2), so
    /// nothing is redundant — then a hand-added extra token becomes one.
    #[test]
    fn reduction_removes_hand_added_redundant_token() {
        let mut b = RegionBuilder::new("redundant");
        let a0 = b.arg(0, Provenance::Unknown);
        let m = MemRef::affine(a0, AffineExpr::zero());
        b.store(m.clone(), &[]);
        b.store(m.clone(), &[]);
        b.store(m, &[]);
        let mut r = b.finish();
        let mut analysis = compile(&mut r, StageConfig::full());
        // The chain st0→st1→st2 exists; force the pruned st0→st2 back in.
        let (s0, s2) = (r.dfg.mem_ops()[0], r.dfg.mem_ops()[2]);
        if r.dfg.add_edge(s0, s2, EdgeKind::Order).is_ok() {
            analysis.plan.order.push((s0, s2));
            analysis.report.mdes.0 += 1;
        }
        let before = analysis.plan.order.len();
        optimize(&mut r, &mut analysis);
        let opt = analysis.opt.as_ref().expect("optimizer ran");
        assert_eq!(opt.stats.order_removed, 1);
        assert_eq!(analysis.plan.order.len(), before - 1);
        assert!(!analysis.plan.order.contains(&(s0, s2)));
        assert_eq!(
            r.dfg.count_edges(EdgeKind::Order),
            analysis.plan.order.len()
        );
        // The certificate's witness walks the surviving chain.
        let Certificate::OrderRedundant { src, dst, witness } = &opt.certs[0] else {
            panic!("expected an OrderRedundant certificate");
        };
        assert_eq!((*src, *dst), (s0, s2));
        assert!(witness.len() >= 3, "path must route via st1: {witness:?}");
        assert!(path_valid(&r.dfg, witness, s0, s2));
    }

    /// One ambiguous store fanning out MAY edges to two congruent loads
    /// ordered by a data chain: rule B coalesces the younger edge.
    #[test]
    fn coalescing_merges_congruent_destinations() {
        let mut b = RegionBuilder::new("coalesce-b");
        let g = b.global("g", 256, 0);
        let a0 = b.arg(0, Provenance::Unknown);
        b.store(MemRef::affine(a0, AffineExpr::zero()), &[]);
        let m = MemRef::affine(g, AffineExpr::constant_expr(8));
        let ld1 = b.load(m.clone(), &[]);
        let t = b.int_op(nachos_ir::IntOp::Add, &[ld1]);
        b.store(m, &[t]);
        let mut r = b.finish();
        let analysis = compile_opt(&mut r, StageConfig::full());
        let opt = analysis.opt.as_ref().expect("optimizer ran");
        assert_eq!(opt.stats.may_coalesced, 1, "certs: {:?}", opt.certs);
        assert_eq!(analysis.plan.may.len(), 1);
        assert_eq!(r.dfg.count_edges(EdgeKind::May), 1);
        let Certificate::MayCoalesced {
            removed,
            kept,
            witness,
        } = &opt.certs[0]
        else {
            panic!("expected a MayCoalesced certificate");
        };
        // Shared source (the ambiguous store), kept edge targets the load.
        assert_eq!(removed.0, kept.0);
        assert!(path_valid(&r.dfg, witness, kept.1, removed.1));
        // Report stays in lockstep.
        assert_eq!(analysis.report.mdes.2, analysis.plan.may.len());
    }

    /// Two congruent ambiguous stores (same unknown MemRef) both MAY-feed
    /// a younger load: rule A coalesces into the youngest source.
    #[test]
    fn coalescing_merges_congruent_sources() {
        let mut b = RegionBuilder::new("coalesce-a");
        let g = b.global("g", 256, 0);
        let a0 = b.arg(0, Provenance::Unknown);
        let m = MemRef::affine(a0, AffineExpr::zero());
        b.store(m.clone(), &[]);
        b.store(m, &[]);
        b.load(MemRef::affine(g, AffineExpr::zero()), &[]);
        let mut r = b.finish();
        let analysis = compile_opt(&mut r, StageConfig::full());
        let opt = analysis.opt.as_ref().expect("optimizer ran");
        // st0 and st1 are MustExact (same ref) → ORDER edge st0→st1; the
        // load MAY-depends on both stores; rule A keeps st1→ld only.
        assert_eq!(opt.stats.may_coalesced, 1, "certs: {:?}", opt.certs);
        let Certificate::MayCoalesced {
            removed,
            kept,
            witness,
        } = opt
            .certs
            .iter()
            .find(|c| matches!(c, Certificate::MayCoalesced { .. }))
            .expect("one coalescing certificate")
        else {
            unreachable!()
        };
        assert_eq!(removed.1, kept.1, "shared destination");
        assert!(path_valid(&r.dfg, witness, removed.0, kept.0));
    }

    /// A stepped loop stages 1–4 cannot see through: iv ∈ {0, 16, …} and
    /// delta = iv + 8 never hits the 8-byte window, but the dense box
    /// admits every intermediate value. Stage 5's k-space congruence
    /// decides it.
    #[test]
    fn stage5_upgrades_stepped_loop_pair() {
        let mut b = RegionBuilder::new("stepped");
        let iv = b.enclosing_loop(LoopInfo {
            name: "i".into(),
            lower: 0,
            upper: 4097,
            step: 16,
        });
        let g = b.global("g", 8192, 0);
        b.store(MemRef::affine(g, AffineExpr::var(iv)), &[]);
        b.load(MemRef::affine(g, AffineExpr::constant_expr(8)), &[]);
        let mut r = b.finish();
        let analysis = compile_opt(&mut r, StageConfig::full());
        let opt = analysis.opt.as_ref().expect("optimizer ran");
        assert_eq!(opt.stats.may_upgraded, 1, "certs: {:?}", opt.certs);
        assert_eq!(analysis.matrix.label_counts().may, 0);
        assert_eq!(r.dfg.count_edges(EdgeKind::May), 0);
        let Certificate::MayUpgraded { fact, .. } = &opt.certs[0] else {
            panic!("expected a MayUpgraded certificate");
        };
        assert_eq!(
            *fact,
            ArithFact::Congruence {
                modulus: 16,
                residue: -8
            }
        );
        // Lockstep: labels and MDE counts describe the upgraded state.
        assert_eq!(analysis.report.final_labels, analysis.matrix.label_counts());
        assert_eq!(analysis.report.mdes.2, analysis.plan.may.len());
    }

    /// Pairs the optimizer cannot prove stay put: nothing is removed from
    /// a genuinely ambiguous region.
    #[test]
    fn ambiguous_pairs_are_untouched() {
        let mut b = RegionBuilder::new("ambiguous");
        let a0 = b.arg(0, Provenance::Unknown);
        let a1 = b.arg(1, Provenance::Unknown);
        b.store(MemRef::affine(a0, AffineExpr::zero()), &[]);
        b.load(MemRef::affine(a1, AffineExpr::zero()), &[]);
        let mut r = b.finish();
        let analysis = compile_opt(&mut r, StageConfig::full());
        let opt = analysis.opt.as_ref().expect("optimizer ran");
        assert_eq!(opt.stats.edges_removed(), 0);
        assert_eq!(opt.stats.may_upgraded, 0);
        assert!(opt.certs.is_empty());
        assert_eq!(
            analysis.matrix.get(crate::matrix::Pair {
                older: 0,
                younger: 1
            }),
            Some(AliasLabel::May)
        );
    }

    /// The optimized region still passes the full audit (including the
    /// certificate lint) under every stage configuration.
    #[test]
    fn optimized_regions_audit_clean() {
        for config in [
            StageConfig::full(),
            StageConfig::baseline(),
            StageConfig::stage1_only(),
        ] {
            let mut b = RegionBuilder::new("audit-clean");
            let iv = b.enclosing_loop(LoopInfo::range("i", 0, 8));
            let g = b.global("g", 1024, 0);
            let a0 = b.arg(0, Provenance::Unknown);
            b.store(MemRef::affine(a0, AffineExpr::zero()), &[]);
            let m = MemRef::affine(g, AffineExpr::var(iv).scaled(8));
            let ld = b.load(m.clone(), &[]);
            let t = b.int_op(nachos_ir::IntOp::Add, &[ld]);
            b.store(m, &[t]);
            b.load(
                MemRef::affine(g, AffineExpr::var(iv).scaled(8).plus(4096)),
                &[],
            );
            let mut r = b.finish();
            let mut analysis = compile(&mut r, config);
            optimize(&mut r, &mut analysis);
            let diags = crate::audit::audit_with(
                &r,
                &analysis,
                config,
                &crate::audit::AuditConfig::default(),
            );
            let errors: Vec<_> = diags.iter().filter(|d| d.is_error()).collect();
            assert!(errors.is_empty(), "{config:?}: {errors:?}");
        }
    }
}
