//! Constant-time edge membership for the optimizer and the audit.
//!
//! Every MDE connects two memory operations, and a region has at most
//! [`nachos_ir::MAX_MEM_OPS`] of them, so a set of MDEs fits a dense
//! table: one kind bitmask per ordered pair of program-order slots. Edges
//! with an endpoint that is not a memory operation (data edges, or
//! malformed graphs) go to a short overflow list, so membership stays
//! exact for any edge.

use nachos_ir::{Dfg, Edge, EdgeKind, NodeId};

/// A set of `(src, dst, kind)` edges over one region's nodes.
#[derive(Debug)]
pub(crate) struct EdgeSet {
    /// Program-order slot of each node, `u32::MAX` for the others.
    slot_of: Vec<u32>,
    slots: usize,
    /// `kinds[src_slot * slots + dst_slot]`: one bit per [`EdgeKind`].
    kinds: Vec<u8>,
    /// Members with an endpoint that has no slot.
    rest: Vec<Edge>,
}

fn bit(kind: EdgeKind) -> u8 {
    1 << kind as u8
}

impl EdgeSet {
    /// An empty set over the nodes of `dfg`.
    pub(crate) fn new(dfg: &Dfg) -> Self {
        let slot_of = dfg
            .node_ids()
            .map(|n| {
                dfg.node(n)
                    .mem_slot
                    .map_or(u32::MAX, |s| u32::try_from(s.index()).expect("8-bit slots"))
            })
            .collect();
        let slots = dfg.num_mem_ops();
        Self {
            slot_of,
            slots,
            kinds: vec![0; slots * slots],
            rest: Vec::new(),
        }
    }

    /// The set of `kind` edges `(src, dst)` in `pairs`.
    pub(crate) fn of_pairs(dfg: &Dfg, pairs: &[(NodeId, NodeId)], kind: EdgeKind) -> Self {
        let mut set = Self::new(dfg);
        for &(s, d) in pairs {
            set.insert(s, d, kind);
        }
        set
    }

    /// The edges of `dfg`'s adjacency lists (dangling edges, which no
    /// traversal sees, are left out).
    pub(crate) fn of_dfg(dfg: &Dfg) -> Self {
        let mut set = Self::new(dfg);
        for e in dfg.node_ids().flat_map(|n| dfg.out_edges(n)) {
            set.insert(e.src, e.dst, e.kind);
        }
        set
    }

    fn cell(&self, src: NodeId, dst: NodeId) -> Option<usize> {
        let slot = |n: NodeId| {
            let s = *self.slot_of.get(n.index())?;
            (s != u32::MAX).then_some(s as usize)
        };
        Some(slot(src)? * self.slots + slot(dst)?)
    }

    /// Adds an edge.
    pub(crate) fn insert(&mut self, src: NodeId, dst: NodeId, kind: EdgeKind) {
        match self.cell(src, dst) {
            Some(c) => self.kinds[c] |= bit(kind),
            None => self.rest.push(Edge::new(src, dst, kind)),
        }
    }

    /// `true` when the set holds `src → dst` of `kind`.
    pub(crate) fn contains(&self, src: NodeId, dst: NodeId, kind: EdgeKind) -> bool {
        match self.cell(src, dst) {
            Some(c) => self.kinds[c] & bit(kind) != 0,
            None => self.rest.contains(&Edge::new(src, dst, kind)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nachos_ir::{AffineExpr, BaseId, IntOp, MemRef, OpKind};

    #[test]
    fn membership_is_exact_for_memory_and_other_endpoints() {
        let mut g = Dfg::new();
        let m = MemRef::affine(BaseId::new(0), AffineExpr::zero());
        let st = g.add_node(OpKind::Store(m.clone())).unwrap();
        let add = g.add_node(OpKind::Int(IntOp::Add)).unwrap();
        let ld = g.add_node(OpKind::Load(m)).unwrap();
        g.add_edge(st, ld, EdgeKind::May).unwrap();
        g.add_edge(ld, add, EdgeKind::Data).unwrap();
        let set = EdgeSet::of_dfg(&g);
        assert!(set.contains(st, ld, EdgeKind::May));
        assert!(!set.contains(st, ld, EdgeKind::Order));
        assert!(!set.contains(ld, st, EdgeKind::May));
        assert!(set.contains(ld, add, EdgeKind::Data));
        assert!(!set.contains(add, ld, EdgeKind::Data));
        // Out-of-range endpoints are simply absent.
        assert!(!set.contains(NodeId::new(7), ld, EdgeKind::May));
        let plan = EdgeSet::of_pairs(&g, &[(st, ld)], EdgeKind::May);
        assert!(plan.contains(st, ld, EdgeKind::May));
        assert!(!plan.contains(ld, add, EdgeKind::Data));
    }
}
