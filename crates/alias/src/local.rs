//! Local-dependency wiring for scratchpad data.
//!
//! Accesses the compiler promoted to the scratchpad (Table II column C5)
//! are *perfectly disambiguated*: the compiler knows their exact
//! dependencies, so they need neither LSQ entries nor runtime checks. But
//! their true dependencies still exist, and on a dataflow fabric they must
//! be expressed explicitly. This pass labels every scratchpad pair with
//! full analysis power (the compiler allocated these objects itself) and
//! wires the resulting ORDER/FORWARD edges into the DFG. Every backend —
//! including OPT-LSQ, whose queue never sees local accesses — honours
//! these edges, and they carry no MDE energy (they stand in for register
//! dataflow).

use crate::afftest::IvBox;
use crate::classify::classify_same_object;
use crate::matrix::{AliasLabel, AliasMatrix};
use crate::stage1;
use crate::stage3::{plan_mdes, MdePlan};
use nachos_ir::{MemSpace, Region};

/// Labels scratchpad pairs and inserts their dependence edges into the
/// region's DFG. Returns the plan that was applied.
pub fn wire_local_deps(region: &mut Region) -> MdePlan {
    let mut matrix = AliasMatrix::for_space(region, MemSpace::Scratchpad);
    if matrix.num_ops() == 0 {
        // No scratchpad accesses: nothing to label, plan or wire.
        return MdePlan::default();
    }
    let bx = IvBox::from_nest(&region.loops);
    let pairs: Vec<_> = matrix.pairs().map(|(p, _, _)| p).collect();
    for pair in pairs {
        let a = region
            .dfg
            .node(matrix.node(pair.older))
            .kind
            .mem_ref()
            .expect("matrix tracks memory ops")
            .clone();
        let b = region
            .dfg
            .node(matrix.node(pair.younger))
            .kind
            .mem_ref()
            .expect("matrix tracks memory ops")
            .clone();
        // Full power: constant, single- and multi-IV differences all
        // resolve; anything the model cannot express stays conservative.
        let mut label = stage1::classify_pair(region, &bx, &a, &b);
        if label == AliasLabel::May {
            if let (Some(ba), Some(bb)) = (a.ptr.base(), b.ptr.base()) {
                if ba == bb {
                    label = classify_same_object(&a, &b, &bx, true);
                }
            }
        }
        matrix.set(pair, label);
    }
    let plan = plan_mdes(region, &matrix, true);
    plan.apply(region);
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use nachos_ir::{AffineExpr, EdgeKind, MemRef, RegionBuilder};

    fn scratch_ref(base: nachos_ir::BaseId, off: i64) -> MemRef {
        MemRef::affine(base, AffineExpr::constant_expr(off)).with_space(MemSpace::Scratchpad)
    }

    #[test]
    fn exact_local_dependence_becomes_forward() {
        let mut b = RegionBuilder::new("t");
        let s = b.stack("buf", 64);
        let x = b.input();
        b.store(scratch_ref(s, 0), &[x]);
        b.load(scratch_ref(s, 0), &[]);
        let mut r = b.finish();
        let plan = wire_local_deps(&mut r);
        assert_eq!(plan.forward.len(), 1);
        assert_eq!(r.dfg.count_edges(EdgeKind::Forward), 1);
    }

    #[test]
    fn disjoint_locals_stay_parallel() {
        let mut b = RegionBuilder::new("t");
        let s = b.stack("buf", 64);
        let x = b.input();
        b.store(scratch_ref(s, 0), &[x]);
        b.load(scratch_ref(s, 8), &[]);
        let mut r = b.finish();
        let plan = wire_local_deps(&mut r);
        assert_eq!(plan.num_mdes(), 0);
    }

    #[test]
    fn global_ops_are_untouched() {
        let mut b = RegionBuilder::new("t");
        let g = b.global("g", 64, 0);
        let m = MemRef::affine(g, AffineExpr::zero());
        b.store(m.clone(), &[]);
        b.load(m, &[]);
        let mut r = b.finish();
        let plan = wire_local_deps(&mut r);
        assert_eq!(plan.num_mdes(), 0, "main-memory pairs are not local deps");
        assert_eq!(r.dfg.num_edges(), 0);
    }
}
