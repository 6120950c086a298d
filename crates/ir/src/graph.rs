//! The dataflow graph (DFG) of an acceleration region.

use crate::edge::{Edge, EdgeKind};
use crate::ids::{EdgeId, MemSlot, NodeId, MAX_MEM_OPS};
use crate::op::OpKind;
use std::fmt;

/// A node of the DFG: an operation plus bookkeeping.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Node {
    /// What the node computes.
    pub kind: OpKind,
    /// For memory operations, the program-order slot; `None` otherwise.
    pub mem_slot: Option<MemSlot>,
}

/// Errors reported by [`Dfg`] mutation and validation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GraphError {
    /// An edge endpoint does not name an existing node.
    UnknownNode(NodeId),
    /// The same directed edge of the same kind was inserted twice.
    DuplicateEdge(Edge),
    /// Adding this edge would create a cycle; acceleration-region DFGs are
    /// DAGs.
    WouldCycle(Edge),
    /// The region exceeds the 8-bit memory-operation id space (max 256).
    TooManyMemOps,
    /// An MDE connects two nodes that are not both memory operations.
    MdeBetweenNonMem(Edge),
    /// An MDE points from a younger to an older memory operation.
    MdeAgainstProgramOrder(Edge),
    /// A forward edge does not go from a store to a load.
    BadForwardEndpoints(Edge),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::UnknownNode(n) => write!(f, "unknown node {n}"),
            GraphError::DuplicateEdge(e) => write!(f, "duplicate edge {e}"),
            GraphError::WouldCycle(e) => write!(f, "edge {e} would create a cycle"),
            GraphError::TooManyMemOps => {
                write!(f, "more than {MAX_MEM_OPS} memory operations in region")
            }
            GraphError::MdeBetweenNonMem(e) => {
                write!(f, "MDE {e} between non-memory operations")
            }
            GraphError::MdeAgainstProgramOrder(e) => {
                write!(f, "MDE {e} violates program order")
            }
            GraphError::BadForwardEndpoints(e) => {
                write!(f, "forward edge {e} must go store -> load")
            }
        }
    }
}

impl std::error::Error for GraphError {}

/// A directed acyclic dataflow graph.
///
/// Nodes are operations; edges are data dependences or memory dependency
/// edges (MDEs). Memory operations additionally carry a program-order slot
/// ([`MemSlot`]), assigned in insertion order, which is the explicit age the
/// compiler communicates to the hardware (8 bits, like TRIPS).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Dfg {
    nodes: Vec<Node>,
    edges: Vec<Edge>,
    /// Outgoing edge ids per node.
    succs: Vec<Vec<EdgeId>>,
    /// Incoming edge ids per node.
    preds: Vec<Vec<EdgeId>>,
    /// Memory operations in program order.
    mem_ops: Vec<NodeId>,
}

impl Dfg {
    /// An empty graph.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a node and returns its id.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::TooManyMemOps`] if the node is a memory
    /// operation and the region already has [`MAX_MEM_OPS`] of them.
    pub fn add_node(&mut self, kind: OpKind) -> Result<NodeId, GraphError> {
        let id = NodeId::new(self.nodes.len());
        let mem_slot = if kind.is_mem() {
            if self.mem_ops.len() >= MAX_MEM_OPS {
                return Err(GraphError::TooManyMemOps);
            }
            let slot = MemSlot::new(self.mem_ops.len());
            self.mem_ops.push(id);
            Some(slot)
        } else {
            None
        };
        self.nodes.push(Node { kind, mem_slot });
        self.succs.push(Vec::new());
        self.preds.push(Vec::new());
        Ok(id)
    }

    /// Adds an edge after checking endpoints, uniqueness, acyclicity and —
    /// for MDEs — that both endpoints are memory operations ordered
    /// old→young (forward edges additionally store→load).
    ///
    /// # Errors
    ///
    /// See [`GraphError`] variants for each rejected shape.
    pub fn add_edge(
        &mut self,
        src: NodeId,
        dst: NodeId,
        kind: EdgeKind,
    ) -> Result<EdgeId, GraphError> {
        let edge = Edge::new(src, dst, kind);
        self.check_edge(edge)?;
        if self.reaches(dst, src) {
            return Err(GraphError::WouldCycle(edge));
        }
        Ok(self.push_edge(edge))
    }

    /// Adds a batch of edges, in order, with the checks of
    /// [`add_edge`](Self::add_edge): the batch is accepted exactly when
    /// adding its edges one at a time would be, and then yields the same
    /// edge table and adjacency order.
    ///
    /// The per-edge checks (endpoints, duplicates — also within the batch
    /// — and MDE shape) run as each edge is appended; acyclicity is
    /// checked once, by a topological sort of the result. That suffices
    /// because every subgraph of a DAG is a DAG: if the full result is
    /// acyclic, so is every prefix the sequential calls would have built.
    /// The whole batch thus costs one `O(V + E)` sort on top of
    /// `add_edge`'s out-edge duplicate scans, instead of one reachability
    /// search (and one `O(V)` allocation) per edge.
    ///
    /// # Errors
    ///
    /// Returns the error the first failing sequential
    /// [`add_edge`](Self::add_edge) call would have returned. On error the
    /// graph is unchanged.
    pub fn add_edges(&mut self, batch: &[(NodeId, NodeId, EdgeKind)]) -> Result<(), GraphError> {
        if batch.is_empty() {
            return Ok(());
        }
        let base = self.edges.len();
        let mut first_err = None;
        for &(src, dst, kind) in batch {
            let edge = Edge::new(src, dst, kind);
            if let Err(e) = self.check_edge(edge) {
                first_err = Some(e);
                break;
            }
            self.push_edge(edge);
        }
        if self.sorted_prefix().len() < self.nodes.len() {
            // Error path only: replay the accepted prefix to name the edge
            // that closes the first cycle, as sequential `add_edge` would.
            // (On a graph that was already cyclic — possible only through
            // `add_edge_unchecked` — no batch edge may be the culprit.)
            let prefix = self.edges[base..].to_vec();
            self.truncate_edges(base);
            for edge in prefix {
                if self.reaches(edge.dst, edge.src) {
                    self.truncate_edges(base);
                    return Err(GraphError::WouldCycle(edge));
                }
                self.push_edge(edge);
            }
        }
        if let Some(e) = first_err {
            self.truncate_edges(base);
            return Err(e);
        }
        Ok(())
    }

    /// The checks [`add_edge`](Self::add_edge) runs before acyclicity, in
    /// its order: endpoint range, uniqueness, MDE shape and self-loops.
    fn check_edge(&self, edge: Edge) -> Result<(), GraphError> {
        let Edge { src, dst, kind } = edge;
        if src.index() >= self.nodes.len() {
            return Err(GraphError::UnknownNode(src));
        }
        if dst.index() >= self.nodes.len() {
            return Err(GraphError::UnknownNode(dst));
        }
        if self.succs[src.index()]
            .iter()
            .any(|&e| self.edges[e.index()] == edge)
        {
            return Err(GraphError::DuplicateEdge(edge));
        }
        if kind.is_mde() {
            let (sn, dn) = (&self.nodes[src.index()], &self.nodes[dst.index()]);
            let (Some(s_slot), Some(d_slot)) = (sn.mem_slot, dn.mem_slot) else {
                return Err(GraphError::MdeBetweenNonMem(edge));
            };
            if s_slot >= d_slot {
                return Err(GraphError::MdeAgainstProgramOrder(edge));
            }
            if kind == EdgeKind::Forward && !(sn.kind.is_store() && dn.kind.is_load()) {
                return Err(GraphError::BadForwardEndpoints(edge));
            }
        }
        if src == dst {
            return Err(GraphError::WouldCycle(edge));
        }
        Ok(())
    }

    /// Appends an edge to the table and, when both endpoints are in range,
    /// to the adjacency lists (which therefore stay in edge-id order).
    fn push_edge(&mut self, edge: Edge) -> EdgeId {
        let id = EdgeId::new(self.edges.len());
        self.edges.push(edge);
        if edge.src.index() < self.nodes.len() && edge.dst.index() < self.nodes.len() {
            self.succs[edge.src.index()].push(id);
            self.preds[edge.dst.index()].push(id);
        }
        id
    }

    /// Drops every edge from index `len` on. The dropped ids are the
    /// largest, hence the last entries of their adjacency lists.
    fn truncate_edges(&mut self, len: usize) {
        while self.edges.len() > len {
            let e = self.edges.pop().expect("len checked");
            if e.src.index() < self.nodes.len() && e.dst.index() < self.nodes.len() {
                self.succs[e.src.index()].pop();
                self.preds[e.dst.index()].pop();
            }
        }
    }

    /// Rebuilds both adjacency lists from the edge table in one pass —
    /// the one routine every deletion shares. Dangling edges stay out.
    fn rebuild_adjacency(&mut self) {
        for list in self.succs.iter_mut().chain(self.preds.iter_mut()) {
            list.clear();
        }
        for (i, e) in self.edges.iter().enumerate() {
            if e.src.index() < self.nodes.len() && e.dst.index() < self.nodes.len() {
                self.succs[e.src.index()].push(EdgeId::new(i));
                self.preds[e.dst.index()].push(EdgeId::new(i));
            }
        }
    }

    /// Adds an edge **without** any invariant checking: no duplicate,
    /// cycle, program-order or endpoint-kind enforcement, and endpoints
    /// may even be out of range (dangling edges are recorded in the edge
    /// table but excluded from the adjacency lists so traversals stay in
    /// bounds).
    ///
    /// This is the escape hatch for building *adversarial* graphs —
    /// fault-injection and validator tests that need regions
    /// [`add_edge`](Self::add_edge) would rightly reject. Production code
    /// must use [`add_edge`](Self::add_edge); anything built through this
    /// method must pass `nachos_ir::validate_region` before it is placed
    /// or simulated.
    pub fn add_edge_unchecked(&mut self, src: NodeId, dst: NodeId, kind: EdgeKind) -> EdgeId {
        self.push_edge(Edge::new(src, dst, kind))
    }

    /// Removes the edge at `index` (in [`edges`](Self::edges) order) and
    /// returns it, rebuilding the adjacency lists; edge ids after `index`
    /// shift down by one.
    ///
    /// Like [`add_edge_unchecked`](Self::add_edge_unchecked) this is an
    /// escape hatch for building *adversarial* graphs (e.g. a compiled
    /// region with one ordering token withheld); anything mutated through
    /// it must pass `nachos_ir::validate_region` before it is placed or
    /// simulated.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn remove_edge_unchecked(&mut self, index: usize) -> Edge {
        let removed = self.edges.remove(index);
        self.rebuild_adjacency();
        removed
    }

    /// Keeps only the edges for which `keep` returns `true`, in their
    /// order, and returns how many were removed: one pass over the edge
    /// table and one adjacency rebuild, however many edges go. Edge ids
    /// shift down past each removed edge, exactly as after the same
    /// deletions made one at a time with
    /// [`remove_edge_between`](Self::remove_edge_between).
    ///
    /// Deletion can never break the invariants
    /// [`add_edge`](Self::add_edge) enforces, so this is a checked
    /// mutation for production passes.
    pub fn retain_edges(&mut self, keep: impl FnMut(&Edge) -> bool) -> usize {
        let before = self.edges.len();
        self.edges.retain(keep);
        let removed = before - self.edges.len();
        if removed > 0 {
            self.rebuild_adjacency();
        }
        removed
    }

    /// Removes the edge `src → dst` of `kind`, if present, and returns it.
    ///
    /// Each call scans the edge table and rebuilds the adjacency lists,
    /// so a pass that deletes many edges whose choice does not depend on
    /// the earlier deletions batches them through
    /// [`retain_edges`](Self::retain_edges) instead. The one production
    /// caller is the MDE optimizer's transitive reduction, whose witness
    /// searches read the graph its earlier deletions left. Removing
    /// an edge can never break the invariants [`add_edge`](Self::add_edge)
    /// enforces (acyclicity, uniqueness and endpoint shape are preserved
    /// by deletion). Returns `None` when no such edge exists.
    pub fn remove_edge_between(
        &mut self,
        src: NodeId,
        dst: NodeId,
        kind: EdgeKind,
    ) -> Option<Edge> {
        let target = Edge::new(src, dst, kind);
        let index = self.edges.iter().position(|e| *e == target)?;
        Some(self.remove_edge_unchecked(index))
    }

    /// `true` if `to` is reachable from `from` along any edges.
    #[must_use]
    pub fn reaches(&self, from: NodeId, to: NodeId) -> bool {
        if from == to {
            return true;
        }
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![from];
        seen[from.index()] = true;
        while let Some(n) = stack.pop() {
            for &e in &self.succs[n.index()] {
                let d = self.edges[e.index()].dst;
                if d == to {
                    return true;
                }
                if !seen[d.index()] {
                    seen[d.index()] = true;
                    stack.push(d);
                }
            }
        }
        false
    }

    /// Number of nodes.
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges.
    #[must_use]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// The node with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// The edge with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn edge(&self, id: EdgeId) -> &Edge {
        &self.edges[id.index()]
    }

    /// Iterates over all node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.nodes.len()).map(NodeId::new)
    }

    /// Iterates over all edges.
    pub fn edges(&self) -> impl Iterator<Item = &Edge> {
        self.edges.iter()
    }

    /// Outgoing edges of a node.
    pub fn out_edges(&self, id: NodeId) -> impl Iterator<Item = &Edge> {
        self.succs[id.index()]
            .iter()
            .map(|&e| &self.edges[e.index()])
    }

    /// Incoming edges of a node.
    pub fn in_edges(&self, id: NodeId) -> impl Iterator<Item = &Edge> {
        self.preds[id.index()]
            .iter()
            .map(|&e| &self.edges[e.index()])
    }

    /// The memory operations of the region, oldest first.
    #[must_use]
    pub fn mem_ops(&self) -> &[NodeId] {
        &self.mem_ops
    }

    /// The node occupying a given program-order memory slot.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    #[must_use]
    pub fn mem_op(&self, slot: MemSlot) -> NodeId {
        self.mem_ops[slot.index()]
    }

    /// Number of memory operations.
    #[must_use]
    pub fn num_mem_ops(&self) -> usize {
        self.mem_ops.len()
    }

    /// Counts edges of the given kind.
    #[must_use]
    pub fn count_edges(&self, kind: EdgeKind) -> usize {
        self.edges.iter().filter(|e| e.kind == kind).count()
    }

    /// A topological order of all nodes (sources first).
    ///
    /// The graph is maintained acyclic by [`Dfg::add_edge`], so this always
    /// succeeds and covers every node.
    #[must_use]
    pub fn topo_order(&self) -> Vec<NodeId> {
        let order = self.sorted_prefix();
        debug_assert_eq!(order.len(), self.nodes.len(), "graph must be acyclic");
        order
    }

    /// Kahn's algorithm: the nodes a topological sort can emit. Shorter
    /// than the node count exactly when the graph has a cycle.
    fn sorted_prefix(&self) -> Vec<NodeId> {
        let mut indeg: Vec<usize> = self.preds.iter().map(Vec::len).collect();
        let mut order = Vec::with_capacity(self.nodes.len());
        let mut ready: Vec<NodeId> = indeg
            .iter()
            .enumerate()
            .filter(|&(_, &d)| d == 0)
            .map(|(i, _)| NodeId::new(i))
            .collect();
        while let Some(n) = ready.pop() {
            order.push(n);
            for &e in &self.succs[n.index()] {
                let d = self.edges[e.index()].dst;
                indeg[d.index()] -= 1;
                if indeg[d.index()] == 0 {
                    ready.push(d);
                }
            }
        }
        order
    }

    /// Length (in nodes) of the longest path through the graph following
    /// only the given edge kinds — the dataflow critical path.
    #[must_use]
    pub fn critical_path_len(&self, kinds: &[EdgeKind]) -> usize {
        let order = self.topo_order();
        let mut depth = vec![1usize; self.nodes.len()];
        let mut max = if self.nodes.is_empty() { 0 } else { 1 };
        for n in order {
            for e in self.out_edges(n) {
                if kinds.contains(&e.kind) {
                    let d = depth[n.index()] + 1;
                    if d > depth[e.dst.index()] {
                        depth[e.dst.index()] = d;
                        max = max.max(d);
                    }
                }
            }
        }
        max
    }

    /// Removes every MDE (order/forward/may edge), keeping data edges.
    /// Used by the compiler driver to re-run MDE insertion with a different
    /// configuration on the same region.
    pub fn clear_mdes(&mut self) {
        self.retain_edges(|e| !e.kind.is_mde());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::AffineExpr;
    use crate::ids::BaseId;
    use crate::memref::MemRef;
    use crate::op::IntOp;

    fn mem() -> MemRef {
        MemRef::affine(BaseId::new(0), AffineExpr::zero())
    }

    fn small_graph() -> (Dfg, NodeId, NodeId, NodeId) {
        let mut g = Dfg::new();
        let a = g.add_node(OpKind::Load(mem())).unwrap();
        let b = g.add_node(OpKind::Int(IntOp::Add)).unwrap();
        let c = g.add_node(OpKind::Store(mem())).unwrap();
        g.add_edge(a, b, EdgeKind::Data).unwrap();
        g.add_edge(b, c, EdgeKind::Data).unwrap();
        (g, a, b, c)
    }

    #[test]
    fn mem_slots_follow_insertion_order() {
        let (g, a, _, c) = small_graph();
        assert_eq!(g.num_mem_ops(), 2);
        assert_eq!(g.mem_ops(), &[a, c]);
        assert_eq!(g.node(a).mem_slot, Some(MemSlot::new(0)));
        assert_eq!(g.node(c).mem_slot, Some(MemSlot::new(1)));
        assert_eq!(g.mem_op(MemSlot::new(1)), c);
    }

    #[test]
    fn remove_edge_unchecked_rebuilds_adjacency() {
        let (mut g, a, b, c) = small_graph();
        let removed = g.remove_edge_unchecked(0);
        assert_eq!(removed, Edge::new(a, b, EdgeKind::Data));
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.out_edges(a).count(), 0);
        assert_eq!(g.in_edges(b).count(), 0);
        // The surviving edge keeps working through the rebuilt lists.
        assert_eq!(
            g.out_edges(b).next(),
            Some(&Edge::new(b, c, EdgeKind::Data))
        );
        assert_eq!(g.in_edges(c).count(), 1);
    }

    #[test]
    fn remove_edge_between_finds_by_endpoints_and_kind() {
        let (mut g, a, _, c) = small_graph();
        g.add_edge(a, c, EdgeKind::Order).unwrap();
        // Wrong kind: untouched.
        assert_eq!(g.remove_edge_between(a, c, EdgeKind::May), None);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(
            g.remove_edge_between(a, c, EdgeKind::Order),
            Some(Edge::new(a, c, EdgeKind::Order))
        );
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.count_edges(EdgeKind::Order), 0);
        // Second removal of the same edge is a no-op.
        assert_eq!(g.remove_edge_between(a, c, EdgeKind::Order), None);
    }

    #[test]
    fn add_edges_matches_sequential_add_edge() {
        let (mut g, a, b, c) = small_graph();
        let mut seq = g.clone();
        let batch = [
            (a, c, EdgeKind::Order),
            (a, c, EdgeKind::May),
            (b, c, EdgeKind::Data),
        ];
        // b -> c already exists: the third edge is a duplicate, and the
        // whole batch is rejected with the graph untouched.
        let before = g.clone();
        assert_eq!(
            g.add_edges(&batch),
            Err(GraphError::DuplicateEdge(Edge::new(b, c, EdgeKind::Data)))
        );
        assert_eq!(g, before);
        g.add_edges(&batch[..2]).unwrap();
        for &(s, d, k) in &batch[..2] {
            seq.add_edge(s, d, k).unwrap();
        }
        assert_eq!(g, seq);
    }

    #[test]
    fn add_edges_names_the_edge_closing_the_first_cycle() {
        let mut g = Dfg::new();
        let n: Vec<NodeId> = (0..4)
            .map(|_| g.add_node(OpKind::Int(IntOp::Add)).unwrap())
            .collect();
        let before = g.clone();
        let batch = [
            (n[0], n[1], EdgeKind::Data),
            (n[1], n[2], EdgeKind::Data),
            (n[2], n[0], EdgeKind::Data),
            (n[3], n[3], EdgeKind::Data),
        ];
        assert_eq!(
            g.add_edges(&batch),
            Err(GraphError::WouldCycle(Edge::new(
                n[2],
                n[0],
                EdgeKind::Data
            )))
        );
        assert_eq!(g, before);
        // Without the cycle, the self-loop is the first failure.
        assert_eq!(
            g.add_edges(&[batch[0], batch[3]]),
            Err(GraphError::WouldCycle(Edge::new(
                n[3],
                n[3],
                EdgeKind::Data
            )))
        );
        assert_eq!(g, before);
    }

    #[test]
    fn retain_edges_matches_repeated_removal() {
        let (mut g, a, b, c) = small_graph();
        g.add_edge(a, c, EdgeKind::Order).unwrap();
        let mut seq = g.clone();
        assert_eq!(g.retain_edges(|e| e.kind == EdgeKind::Order), 2);
        seq.remove_edge_between(a, b, EdgeKind::Data).unwrap();
        seq.remove_edge_between(b, c, EdgeKind::Data).unwrap();
        assert_eq!(g, seq);
        assert_eq!(g.retain_edges(|_| true), 0);
        assert_eq!(g.out_edges(a).count(), 1);
    }

    #[test]
    fn rejects_duplicate_edges() {
        let (mut g, a, b, _) = small_graph();
        assert!(matches!(
            g.add_edge(a, b, EdgeKind::Data),
            Err(GraphError::DuplicateEdge(_))
        ));
        // Same endpoints, different kind is allowed for mem pairs only;
        // for data+data it is a duplicate, but data+order between a load
        // and an add is an MDE error:
        assert!(matches!(
            g.add_edge(a, b, EdgeKind::Order),
            Err(GraphError::MdeBetweenNonMem(_))
        ));
    }

    #[test]
    fn rejects_cycles_and_self_edges() {
        let (mut g, a, _, c) = small_graph();
        assert!(matches!(
            g.add_edge(c, a, EdgeKind::Data),
            Err(GraphError::WouldCycle(_))
        ));
        assert!(matches!(
            g.add_edge(a, a, EdgeKind::Data),
            Err(GraphError::WouldCycle(_))
        ));
    }

    #[test]
    fn rejects_unknown_nodes() {
        let (mut g, a, _, _) = small_graph();
        assert!(matches!(
            g.add_edge(a, NodeId::new(99), EdgeKind::Data),
            Err(GraphError::UnknownNode(_))
        ));
    }

    #[test]
    fn mde_program_order_enforced() {
        let (mut g, a, _, c) = small_graph();
        // a is older than c: ok (load->store order edge).
        g.add_edge(a, c, EdgeKind::Order).unwrap();
        // store->load backwards in program order: rejected.
        assert!(matches!(
            g.add_edge(c, a, EdgeKind::Forward),
            Err(GraphError::MdeAgainstProgramOrder(_))
        ));
    }

    #[test]
    fn forward_requires_store_to_load() {
        let mut g = Dfg::new();
        let ld = g.add_node(OpKind::Load(mem())).unwrap();
        let ld2 = g.add_node(OpKind::Load(mem())).unwrap();
        let st = g.add_node(OpKind::Store(mem())).unwrap();
        assert!(matches!(
            g.add_edge(ld, ld2, EdgeKind::Forward),
            Err(GraphError::BadForwardEndpoints(_))
        ));
        assert!(matches!(
            g.add_edge(ld, st, EdgeKind::Forward),
            Err(GraphError::BadForwardEndpoints(_))
        ));
        let mut g2 = Dfg::new();
        let st2 = g2.add_node(OpKind::Store(mem())).unwrap();
        let ld3 = g2.add_node(OpKind::Load(mem())).unwrap();
        assert!(g2.add_edge(st2, ld3, EdgeKind::Forward).is_ok());
    }

    #[test]
    fn topo_order_is_valid() {
        let (g, _, _, _) = small_graph();
        let order = g.topo_order();
        assert_eq!(order.len(), 3);
        let pos: Vec<usize> = g
            .node_ids()
            .map(|n| order.iter().position(|&o| o == n).unwrap())
            .collect();
        for e in g.edges() {
            assert!(pos[e.src.index()] < pos[e.dst.index()]);
        }
    }

    #[test]
    fn critical_path_follows_selected_kinds() {
        let (mut g, a, _, c) = small_graph();
        assert_eq!(g.critical_path_len(&[EdgeKind::Data]), 3);
        g.add_edge(a, c, EdgeKind::Order).unwrap();
        // Order edge a->c does not lengthen data-only path.
        assert_eq!(g.critical_path_len(&[EdgeKind::Data]), 3);
        assert_eq!(g.critical_path_len(&[EdgeKind::Order]), 2);
    }

    #[test]
    fn clear_mdes_keeps_data_edges() {
        let (mut g, a, _, c) = small_graph();
        g.add_edge(a, c, EdgeKind::Order).unwrap();
        assert_eq!(g.num_edges(), 3);
        g.clear_mdes();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.count_edges(EdgeKind::Order), 0);
        assert_eq!(g.count_edges(EdgeKind::Data), 2);
        // Adjacency stays consistent.
        assert_eq!(g.out_edges(a).count(), 1);
        assert_eq!(g.in_edges(c).count(), 1);
    }

    #[test]
    fn mem_op_limit_enforced() {
        let mut g = Dfg::new();
        for _ in 0..MAX_MEM_OPS {
            g.add_node(OpKind::Load(mem())).unwrap();
        }
        assert!(matches!(
            g.add_node(OpKind::Load(mem())),
            Err(GraphError::TooManyMemOps)
        ));
        // Non-memory nodes are still fine.
        assert!(g.add_node(OpKind::Int(IntOp::Add)).is_ok());
    }

    #[test]
    fn reaches_is_transitive() {
        let (g, a, b, c) = small_graph();
        assert!(g.reaches(a, c));
        assert!(g.reaches(a, b));
        assert!(!g.reaches(c, a));
        assert!(g.reaches(b, b));
    }
}
