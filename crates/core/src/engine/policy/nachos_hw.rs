//! The NACHOS policy: MDEs with hardware-assisted MAY resolution. Each
//! MAY edge routes the older op's address to a comparator at the younger
//! op's site; the `==?` check releases the younger op early when the
//! addresses do not overlap, and otherwise holds it until the older op
//! completes (paper §VI–VII). One comparator per site arbitrates checks.

use crate::config::Backend;
use nachos_ir::{EdgeKind, NodeId};

use super::super::calendar::Calendar;
use super::super::core::SchedCore;
use super::super::state::Ev;
use super::{dataflow_admit, DisambiguationPolicy, EdgeGate};
use crate::fault::{FaultClass, FaultKind};

#[derive(Clone, Copy, Debug)]
struct MayEdge {
    older: NodeId,
    younger: NodeId,
    /// Mesh links from the older op's FU to the younger's comparator.
    hops: u32,
    /// The younger op's comparator-site slot.
    site: u32,
}

/// "Node hosts no comparator site" sentinel while assigning sites.
const NO_SITE: u32 = u32::MAX;

/// The MAY-edge table and comparator sites are fixed for a run (built in
/// `prepare_run`); each invocation resets only the `checked` flags, the
/// site calendars and the conflict waiters.
#[derive(Default)]
pub(crate) struct NachosPolicy {
    /// The run's non-local MAY edges, in graph edge order.
    may_edges: Vec<MayEdge>,
    /// This invocation's `==?` check already happened, per MAY edge.
    checked: Vec<bool>,
    /// Younger nodes waiting for an older op's completion (conflict case).
    conflict_waiters: Vec<Vec<(NodeId, u32)>>,
    /// Comparator-site calendars; the first `sites` are this run's, in
    /// order of first appearance of their younger node in the edge order.
    /// Pooled across runs, so capacity carries over.
    site_cals: Vec<Calendar>,
    sites: usize,
    /// Per-node MAY-edge index lists (edges where the node is older or
    /// younger), in ascending edge order, so address resolution walks
    /// only the node's own edges instead of scanning the whole table.
    edges_of: Vec<Vec<u32>>,
    /// Scratch: comparator slot per node while assigning sites.
    site_of: Vec<u32>,
}

impl NachosPolicy {
    /// The older op's address is now known — wake every MAY edge it
    /// participates in (as older: route the address to the younger's
    /// comparator; as younger: its own checks can begin).
    fn propagate_may_addresses(&mut self, core: &mut SchedCore, addr_t: u64, n: NodeId) {
        let i = n.index();
        for k in 0..self.edges_of[i].len() {
            let idx = self.edges_of[i][k] as usize;
            self.try_may_check(core, addr_t, idx);
        }
    }

    /// Performs the `==?` check of one MAY edge if both addresses are
    /// available, honouring the per-site single-comparator arbitration.
    fn try_may_check(&mut self, core: &mut SchedCore, now: u64, idx: usize) {
        if self.checked[idx] {
            return;
        }
        let MayEdge {
            older,
            younger,
            hops,
            site,
        } = self.may_edges[idx];
        let (Some(older_addr_t), Some(younger_addr_t)) = (
            core.state.addr_ready_at(older.index()),
            core.state.addr_ready_at(younger.index()),
        ) else {
            return;
        };
        // Address reaches the younger site over the operand network.
        let ready = now
            .max(older_addr_t + core.config.latency.route_latency(hops))
            .max(younger_addr_t);
        let check_t = self.site_cals[site as usize].claim(ready);
        // Cycles the check spent queued behind the site's single comparator.
        core.stalls.comparator += check_t - ready;
        self.checked[idx] = true;
        core.counts.may_checks += 1;
        let a = (
            core.state.addr[older.index()],
            core.state.size[older.index()],
        );
        let b = (
            core.state.addr[younger.index()],
            core.state.size[younger.index()],
        );
        let mut conflict = a.0 < b.0 + u64::from(b.1) && b.0 < a.0 + u64::from(a.1);
        match core.poll_fault(FaultClass::MayCheck) {
            Some(kind @ FaultKind::ForceNoConflict) => {
                core.fault.record(
                    kind,
                    check_t,
                    &format!("check n{} vs n{}", older.index(), younger.index()),
                );
                conflict = false;
            }
            Some(kind @ FaultKind::ForceConflict) => {
                core.fault.record(
                    kind,
                    check_t,
                    &format!("check n{} vs n{}", older.index(), younger.index()),
                );
                conflict = true;
            }
            _ => {}
        }
        if !conflict {
            core.push(check_t + 1, Ev::Release(younger));
        } else if let Some(done) = core.state.completed_at(older.index()) {
            let release = (done + core.config.latency.route_latency(hops)).max(check_t + 1);
            core.push(release, Ev::Release(younger));
        } else {
            self.conflict_waiters[older.index()].push((younger, hops));
        }
    }
}

impl DisambiguationPolicy for NachosPolicy {
    fn backend(&self) -> Backend {
        Backend::Nachos
    }

    fn edge_gate(&self, kind: EdgeKind) -> EdgeGate {
        match kind {
            EdgeKind::Forward => EdgeGate::Data,
            EdgeKind::Order => EdgeGate::Token,
            // Unresolved until the comparator releases it.
            EdgeKind::May => EdgeGate::May,
            EdgeKind::Data => EdgeGate::Data,
        }
    }

    /// Build the run's MAY-edge table, per-node edge lists and comparator
    /// sites.
    fn prepare_run(&mut self, core: &SchedCore) {
        let dfg = &core.region.dfg;
        let n = dfg.num_nodes();
        self.may_edges.clear();
        self.site_of.clear();
        self.site_of.resize(n, NO_SITE);
        if self.edges_of.len() < n {
            self.edges_of.resize(n, Vec::new());
        }
        for l in &mut self.edges_of {
            l.clear();
        }
        let mut sites = 0u32;
        for e in dfg.edges() {
            if e.kind != EdgeKind::May || (core.is_scratch(e.src) && core.is_scratch(e.dst)) {
                continue;
            }
            let idx = u32::try_from(self.may_edges.len()).expect("edge count fits u32");
            self.edges_of[e.src.index()].push(idx);
            if e.dst != e.src {
                self.edges_of[e.dst.index()].push(idx);
            }
            let site = &mut self.site_of[e.dst.index()];
            if *site == NO_SITE {
                *site = sites;
                sites += 1;
            }
            self.may_edges.push(MayEdge {
                older: e.src,
                younger: e.dst,
                hops: core.placement.hops(e.src, e.dst),
                site: *site,
            });
        }
        self.sites = sites as usize;
        let width = core.config.comparators_per_site;
        while self.site_cals.len() < self.sites {
            self.site_cals.push(Calendar::new(width));
        }
        self.checked.clear();
        self.checked.resize(self.may_edges.len(), false);
        if self.conflict_waiters.len() < n {
            self.conflict_waiters.resize(n, Vec::new());
        }
    }

    /// Per invocation: every check re-arms, every site calendar empties.
    fn after_gating(&mut self, core: &mut SchedCore, _t0: u64) {
        self.checked.fill(false);
        for w in &mut self.conflict_waiters {
            w.clear();
        }
        let width = core.config.comparators_per_site;
        for cal in &mut self.site_cals[..self.sites] {
            cal.reset(width);
        }
    }

    fn on_stores_resolved(&mut self, core: &mut SchedCore, t0: u64, agen: u64) {
        for k in 0..core.plan.stores.len() {
            let n = core.plan.stores[k];
            self.propagate_may_addresses(core, t0 + agen, n);
        }
    }

    fn on_load_address(&mut self, core: &mut SchedCore, addr_t: u64, n: NodeId) {
        self.propagate_may_addresses(core, addr_t, n);
    }

    fn on_forward_edge(&mut self, core: &mut SchedCore, at: u64, dst: NodeId) {
        core.counts.must_tokens += 1;
        core.push(at, Ev::Data(dst));
    }

    fn admit_mem(&mut self, core: &mut SchedCore, t: u64, n: NodeId, fired: bool) {
        dataflow_admit(core, t, n, fired);
    }

    /// ORDER completes as a token; MAY releases ride the comparator
    /// protocol instead.
    fn on_completion_edge(&mut self, core: &mut SchedCore, at: u64, dst: NodeId, kind: EdgeKind) {
        if kind == EdgeKind::Order {
            core.counts.must_tokens += 1;
            core.push_token(at, dst);
        }
    }

    /// Conflicting younger ops waiting on this completion.
    fn on_complete(&mut self, core: &mut SchedCore, t: u64, n: NodeId) {
        let waiters = &mut self.conflict_waiters[n.index()];
        for &(younger, hops) in waiters.iter() {
            let route = core.config.latency.route_latency(hops);
            core.push(t + route, Ev::Release(younger));
        }
        waiters.clear();
    }
}
