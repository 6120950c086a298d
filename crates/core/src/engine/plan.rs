//! [`RunPlan`]: everything the scheduler derives from the region, the
//! placement and the backend's gating rules, computed once per run.
//!
//! A run executes the same region under the same placement and backend
//! for every invocation; only the binding context (iteration vector,
//! unknown-pointer values) changes. So the gate census, the out-edge
//! fan-out with its route latencies, each node's operand sources and the
//! store list are run-invariant, and the event loop reads them from flat
//! tables here instead of re-deriving them from the graph per
//! invocation. Every table keeps the graph's edge order, so the events
//! the loop pushes from it come out in exactly the order the per-edge
//! walks produced.

use nachos_cgra::{LatencyModel, Placement};
use nachos_ir::{EdgeKind, MemSpace, NodeId, Region};

use super::policy::EdgeGate;

/// How a completing (or, for FORWARD, firing) node acts on one out-edge.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum OutClass {
    /// DATA edge: deliver the operand.
    Data,
    /// Scratchpad-local FORWARD: register dataflow, sent when the store
    /// fires.
    LocalForward,
    /// Non-local FORWARD: routed by the policy when the store fires.
    Forward,
    /// Scratchpad-local ORDER/MAY: an ordering token under every backend.
    LocalToken,
    /// Non-local ORDER: the policy's completion protocol.
    Order,
    /// Non-local MAY: the policy's completion protocol.
    May,
}

/// One flattened out-edge with its route latency precomputed.
#[derive(Clone, Copy, Debug)]
pub(crate) struct OutEdge {
    pub(crate) dst: NodeId,
    pub(crate) class: OutClass,
    /// Operand-network latency from the source FU to `dst`'s FU.
    pub(crate) route: u64,
}

/// "No forward-in edge" sentinel in [`RunPlan::forward_src`].
const NO_SRC: u32 = u32::MAX;

/// The run-invariant execution plan. All buffers are pooled in the
/// arena's `CoreBufs` and refilled by [`RunPlan::build`].
#[derive(Default)]
pub(crate) struct RunPlan {
    /// Initial data/forward operand count per node.
    pub(crate) data_pending: Vec<u32>,
    /// Initial ordering-token count per node.
    pub(crate) token_pending: Vec<u32>,
    /// Initial MAY-gate count per node (statically gated edges only).
    pub(crate) may_pending: Vec<u32>,
    /// Nodes with no data operands, ascending: fired at invocation start.
    pub(crate) sources: Vec<NodeId>,
    /// Store nodes in program order.
    pub(crate) stores: Vec<NodeId>,
    /// Per-node scratchpad flag.
    scratch: Vec<bool>,
    /// CSR offsets into `out` (`num_nodes + 1` entries).
    out_start: Vec<u32>,
    out: Vec<OutEdge>,
    /// CSR offsets into `data_src` (`num_nodes + 1` entries).
    data_start: Vec<u32>,
    /// DATA-operand sources per node, in in-edge order.
    data_src: Vec<NodeId>,
    /// First FORWARD in-edge source per node ([`NO_SRC`] = none).
    forward_src: Vec<u32>,
}

fn is_scratch(region: &Region, n: NodeId) -> bool {
    region
        .dfg
        .node(n)
        .kind
        .mem_ref()
        .is_some_and(|m| m.space == MemSpace::Scratchpad)
}

fn offset(len: usize) -> u32 {
    u32::try_from(len).expect("edge count fits u32")
}

impl RunPlan {
    /// Rebuilds the plan for one run. `gate` is the backend's
    /// run-invariant classification of a non-local FORWARD/ORDER/MAY
    /// edge; DATA edges and scratchpad-local dependencies (register
    /// dataflow the compiler wired explicitly — the LSQ never sees local
    /// accesses) gate identically under every backend.
    pub(crate) fn build(
        &mut self,
        region: &Region,
        placement: &Placement,
        latency: &LatencyModel,
        gate: impl Fn(EdgeKind) -> EdgeGate,
    ) {
        let dfg = &region.dfg;
        let n = dfg.num_nodes();
        self.scratch.clear();
        self.scratch
            .extend(dfg.node_ids().map(|id| is_scratch(region, id)));
        for v in [
            &mut self.data_pending,
            &mut self.token_pending,
            &mut self.may_pending,
        ] {
            v.clear();
            v.resize(n, 0);
        }
        self.sources.clear();
        self.out_start.clear();
        self.out.clear();
        self.data_start.clear();
        self.data_src.clear();
        self.forward_src.clear();
        for id in dfg.node_ids() {
            let i = id.index();
            self.data_start.push(offset(self.data_src.len()));
            let mut forward = NO_SRC;
            for e in dfg.in_edges(id) {
                let local = self.scratch[e.src.index()] && self.scratch[i];
                let g = match e.kind {
                    EdgeKind::Data => {
                        self.data_src.push(e.src);
                        EdgeGate::Data
                    }
                    EdgeKind::Forward if local => EdgeGate::Data,
                    EdgeKind::Order | EdgeKind::May if local => EdgeGate::Token,
                    kind => gate(kind),
                };
                if e.kind == EdgeKind::Forward && forward == NO_SRC {
                    forward = e.src.raw();
                }
                match g {
                    EdgeGate::Data => self.data_pending[i] += 1,
                    EdgeGate::Token => self.token_pending[i] += 1,
                    EdgeGate::May => self.may_pending[i] += 1,
                    EdgeGate::Ignore => {}
                }
            }
            self.forward_src.push(forward);
            if self.data_pending[i] == 0 {
                self.sources.push(id);
            }
            self.out_start.push(offset(self.out.len()));
            for e in dfg.out_edges(id) {
                let local = self.scratch[i] && self.scratch[e.dst.index()];
                let class = match e.kind {
                    EdgeKind::Data => OutClass::Data,
                    EdgeKind::Forward if local => OutClass::LocalForward,
                    EdgeKind::Forward => OutClass::Forward,
                    EdgeKind::Order | EdgeKind::May if local => OutClass::LocalToken,
                    EdgeKind::Order => OutClass::Order,
                    EdgeKind::May => OutClass::May,
                };
                self.out.push(OutEdge {
                    dst: e.dst,
                    class,
                    route: latency.route_latency(placement.hops(e.src, e.dst)),
                });
            }
        }
        self.data_start.push(offset(self.data_src.len()));
        self.out_start.push(offset(self.out.len()));
        self.stores.clear();
        self.stores.extend(
            dfg.mem_ops()
                .iter()
                .copied()
                .filter(|&m| dfg.node(m).kind.is_store()),
        );
    }

    #[inline]
    pub(crate) fn is_scratch(&self, n: NodeId) -> bool {
        self.scratch[n.index()]
    }

    /// Index range of `n`'s out-edges in [`RunPlan::out_edge`] order.
    #[inline]
    pub(crate) fn out_range(&self, n: NodeId) -> std::ops::Range<usize> {
        self.out_start[n.index()] as usize..self.out_start[n.index() + 1] as usize
    }

    #[inline]
    pub(crate) fn out_edge(&self, k: usize) -> OutEdge {
        self.out[k]
    }

    /// `n`'s DATA-operand sources, in in-edge order.
    #[inline]
    pub(crate) fn data_sources(&self, n: NodeId) -> &[NodeId] {
        let i = n.index();
        &self.data_src[self.data_start[i] as usize..self.data_start[i + 1] as usize]
    }

    /// Source of `n`'s first FORWARD in-edge, if any.
    #[inline]
    pub(crate) fn forward_source(&self, n: NodeId) -> Option<NodeId> {
        let s = self.forward_src[n.index()];
        (s != NO_SRC).then(|| NodeId::new(s as usize))
    }
}
