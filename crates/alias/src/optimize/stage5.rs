//! Stage 5 — symbolic congruence/range analysis over iteration counts.
//!
//! Stages 1 and 4 test affine deltas over the *dense* induction-variable
//! box ([`IvBox::from_nest`]), which over-approximates stepped loops: a
//! `step 16` loop contributes every integer between its bounds, so the
//! GCD congruence argument degenerates (gcd includes the raw coefficient,
//! not `coefficient · step`). Stage 5 reparameterizes the delta to
//! iteration-count space ([`iteration_space`]) — an *exact* description
//! of the values the delta takes at runtime — and re-runs the full
//! interval / congruence / exact-reachability chain there, recording the
//! deciding arithmetic fact as a [`Certificate::MayUpgraded`].
//!
//! Upgrades are MAY→NO only. A MAY pair that *always* overlaps would have
//! a constant (or box-constant) delta inside the window, which stage 1
//! already classifies MUST whenever the delta is derivable at all — so
//! there is nothing sound left for stage 5 to upgrade to MUST.

use super::cert::{ArithFact, Certificate};
use crate::afftest::{congruence_hits, delta_range, gcd, iteration_space, IvBox};
use crate::classify::linearize;
use crate::edgeset::EdgeSet;
use crate::matrix::{AliasLabel, AliasMatrix};
use crate::stage3::MdePlan;
use nachos_ir::{AffineExpr, EdgeKind, NodeId, Region};

/// Decides whether the k-space `delta` provably misses the overlap window
/// for the given access sizes, returning the deciding fact. Mirrors
/// [`crate::afftest::overlap_test`]'s disjointness chain; `None` means
/// the pair stays MAY.
pub(crate) fn disjoint_fact(
    delta: &AffineExpr,
    bx: &IvBox,
    size_a: u32,
    size_b: u32,
) -> Option<ArithFact> {
    let window_lo = -i128::from(size_a) + 1;
    let window_hi = i128::from(size_b) - 1;
    let (lo, hi) = delta_range(delta, bx);
    if hi < window_lo || lo > window_hi {
        return Some(ArithFact::Range { lo, hi });
    }
    if delta.is_constant() || lo == hi {
        // A pinned delta inside the window overlaps: not disjoint.
        return None;
    }
    let g = delta.terms().map(|(_, c)| c.unsigned_abs()).fold(0u64, gcd);
    let clipped_lo = lo.max(window_lo);
    let clipped_hi = hi.min(window_hi);
    if !congruence_hits(clipped_lo, clipped_hi, i128::from(delta.constant()), g) {
        return Some(ArithFact::Congruence {
            modulus: g,
            residue: delta.constant(),
        });
    }
    if crate::exact::window_reachable(
        delta,
        bx,
        window_lo,
        window_hi,
        crate::exact::ExactBudget::default(),
    ) == Some(false)
    {
        return Some(ArithFact::Exact);
    }
    None
}

/// Derives the k-space delta for a same-object pair, or `None` when the
/// pair is outside stage 5's domain (different/unknown bases, or a
/// non-linearizable subscript).
pub(crate) fn kspace_delta(
    region: &Region,
    older: NodeId,
    younger: NodeId,
) -> Option<(AffineExpr, IvBox, u32, u32)> {
    let ma = region.dfg.node(older).kind.mem_ref()?;
    let mb = region.dfg.node(younger).kind.mem_ref()?;
    if ma.ptr.base()? != mb.ptr.base()? {
        return None;
    }
    let delta = linearize(ma)?.sub(&linearize(mb)?);
    let (dk, bx) = iteration_space(&delta, &region.loops);
    Some((dk, bx, u32::from(ma.size), u32::from(mb.size)))
}

/// Upgrades every decidable residual MAY pair to NO, deleting its planned
/// MAY edge (when one exists) and keeping the matrix, the plan and the
/// DFG in lockstep. No decision reads an edge, so the deletions are
/// collected and applied in one batch. Returns
/// `(pairs_upgraded, edges_removed)`.
pub(super) fn run(
    region: &mut Region,
    matrix: &mut AliasMatrix,
    plan: &mut MdePlan,
    certs: &mut Vec<Certificate>,
) -> (usize, usize) {
    let mut upgraded = 0usize;
    let planned = EdgeSet::of_pairs(&region.dfg, &plan.may, EdgeKind::May);
    let mut doomed = Vec::new();
    let may_pairs: Vec<_> = matrix
        .pairs()
        .filter(|&(_, _, label)| label == AliasLabel::May)
        .map(|(pair, _, _)| pair)
        .collect();
    for pair in may_pairs {
        let (s, d) = (matrix.node(pair.older), matrix.node(pair.younger));
        let Some((delta, bx, size_a, size_b)) = kspace_delta(region, s, d) else {
            continue;
        };
        let Some(fact) = disjoint_fact(&delta, &bx, size_a, size_b) else {
            continue;
        };
        matrix.set(pair, AliasLabel::No);
        if planned.contains(s, d, EdgeKind::May) {
            doomed.push((s, d));
        }
        upgraded += 1;
        certs.push(Certificate::MayUpgraded {
            older: s,
            younger: d,
            delta,
            fact,
        });
    }
    super::remove_may_edges(region, plan, &doomed);
    (upgraded, doomed.len())
}
