//! The IDEAL oracle policy: perfect, zero-cost memory disambiguation —
//! the upper bound of Fig. 9. The oracle evaluates both endpoints of
//! every MAY edge against the invocation's binding at gating time:
//! non-conflicting MAY edges vanish entirely (no gate, no check, no
//! energy), and true conflicts hold the younger op exactly until the
//! older op completes (plus routing) — the minimum any sound mechanism
//! could achieve. ORDER and FORWARD edges are real dependencies and are
//! honoured as under NACHOS.

use crate::config::Backend;
use nachos_ir::{EdgeKind, NodeId};

use super::super::core::SchedCore;
use super::super::state::Ev;
use super::{dataflow_admit, DisambiguationPolicy, EdgeGate};

/// One non-local MAY edge the oracle judges each invocation.
#[derive(Clone, Copy)]
struct OracleEdge {
    older: NodeId,
    younger: NodeId,
    /// Mesh links from the older op's FU to the younger's.
    hops: u32,
}

#[derive(Default)]
pub(crate) struct IdealPolicy {
    /// The run's non-local MAY edges in (destination node, in-edge)
    /// order, so conflicting edges append to `waiters` in the same order
    /// a per-node walk of the graph would.
    mays: Vec<OracleEdge>,
    /// Younger ops gated by a true conflict, indexed by the older node.
    waiters: Vec<Vec<(NodeId, u32)>>,
}

impl IdealPolicy {
    /// Oracle verdict for one MAY edge: do the two accesses *actually*
    /// overlap this invocation? Uses the same byte-overlap test as the
    /// NACHOS comparator, but with perfect knowledge and zero cost.
    fn conflicts(core: &SchedCore, a: NodeId, b: NodeId) -> bool {
        let (a0, asz) = core.eval_mem_ref(a);
        let (b0, bsz) = core.eval_mem_ref(b);
        a0 < b0 + u64::from(bsz) && b0 < a0 + u64::from(asz)
    }
}

impl DisambiguationPolicy for IdealPolicy {
    fn backend(&self) -> Backend {
        Backend::Ideal
    }

    /// MAY gates depend on the invocation's addresses: they are added by
    /// the oracle in `after_gating`, not fixed for the run.
    fn edge_gate(&self, kind: EdgeKind) -> EdgeGate {
        match kind {
            EdgeKind::Forward | EdgeKind::Data => EdgeGate::Data,
            EdgeKind::Order => EdgeGate::Token,
            EdgeKind::May => EdgeGate::Ignore,
        }
    }

    fn prepare_run(&mut self, core: &SchedCore) {
        let dfg = &core.region.dfg;
        self.mays.clear();
        for n in dfg.node_ids() {
            for e in dfg.in_edges(n) {
                if e.kind == EdgeKind::May && !(core.is_scratch(e.src) && core.is_scratch(n)) {
                    self.mays.push(OracleEdge {
                        older: e.src,
                        younger: n,
                        hops: core.placement.hops(e.src, n),
                    });
                }
            }
        }
        if self.waiters.len() < dfg.num_nodes() {
            self.waiters.resize(dfg.num_nodes(), Vec::new());
        }
    }

    /// Oracle gating: a true dependence holds the younger op for the
    /// older op's completion (plus routing), and no less; a false MAY
    /// costs nothing.
    fn after_gating(&mut self, core: &mut SchedCore, _t0: u64) {
        for w in &mut self.waiters {
            w.clear();
        }
        for &OracleEdge {
            older,
            younger,
            hops,
        } in &self.mays
        {
            if Self::conflicts(core, older, younger) {
                core.state.may_pending[younger.index()] += 1;
                self.waiters[older.index()].push((younger, hops));
            }
        }
    }

    fn on_forward_edge(&mut self, core: &mut SchedCore, at: u64, dst: NodeId) {
        core.counts.must_tokens += 1;
        core.push(at, Ev::Data(dst));
    }

    fn admit_mem(&mut self, core: &mut SchedCore, t: u64, n: NodeId, fired: bool) {
        dataflow_admit(core, t, n, fired);
    }

    /// ORDER completes as a token; true-conflict MAY releases happen in
    /// `on_complete`.
    fn on_completion_edge(&mut self, core: &mut SchedCore, at: u64, dst: NodeId, kind: EdgeKind) {
        if kind == EdgeKind::Order {
            core.counts.must_tokens += 1;
            core.push_token(at, dst);
        }
    }

    /// Release every younger op whose true conflict this completion
    /// resolves — at completion + route, the earliest sound release.
    fn on_complete(&mut self, core: &mut SchedCore, t: u64, n: NodeId) {
        let waiters = &mut self.waiters[n.index()];
        for &(younger, hops) in waiters.iter() {
            let route = core.config.latency.route_latency(hops);
            core.push(t + route, Ev::Release(younger));
        }
        waiters.clear();
    }
}
