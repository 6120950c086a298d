//! The OPT-LSQ baseline policy: a banked, bloom-filtered load/store queue
//! with in-order, port-limited allocation and in-order retirement (paper
//! §IV). MDEs are ignored — the LSQ is the ordering mechanism — except for
//! compiler-wired scratchpad-local dependencies, which gate issue exactly
//! as they do under the MDE backends.

use crate::config::{Backend, SimConfig};
use crate::energy::EventCounts;
use crate::error::{DeadlockCause, SimError};
use nachos_ir::{EdgeKind, NodeId};
use nachos_lsq::{BloomStats, LoadSearch, Lsq, StoreSearch};

use super::super::core::{node_kind, SchedCore};
use super::super::state::{Ev, StallCause};
use super::{DisambiguationPolicy, EdgeGate};

/// Ages and per-age kinds are fixed for a run (built in `prepare_run`);
/// each invocation resets only the binding flags, the blocked set and the
/// LSQ itself.
pub(crate) struct OptLsqPolicy {
    lsq: Lsq,
    /// Node -> disambiguation age (program order among the memory ops
    /// that need disambiguation).
    ages: Vec<Option<u32>>,
    /// Inverse mapping age -> node, so LSQ forwards resolve in O(1).
    age_nodes: Vec<NodeId>,
    /// The node's address has been bound into the LSQ.
    bound: Vec<bool>,
    /// The LSQ-allocation wait was already charged (at most once per op).
    alloc_charged: Vec<bool>,
    /// Nodes blocked on a search, re-tried on state changes.
    blocked: Vec<NodeId>,
    /// Swap buffer so waking the blocked set never reallocates.
    wake_scratch: Vec<NodeId>,
    /// Per-age store/load kinds.
    kinds: Vec<bool>,
    /// Allocation reference point: the cycle this invocation's in-order
    /// allocation began.
    alloc_t0: u64,
}

impl OptLsqPolicy {
    pub(crate) fn new(config: &SimConfig) -> Self {
        Self {
            lsq: Lsq::new(config.lsq),
            ages: Vec::new(),
            age_nodes: Vec::new(),
            bound: Vec::new(),
            alloc_charged: Vec::new(),
            blocked: Vec::new(),
            wake_scratch: Vec::new(),
            kinds: Vec::new(),
            alloc_t0: 0,
        }
    }

    fn age_of(&self, n: NodeId) -> Option<u32> {
        self.ages[n.index()]
    }

    /// Records an op blocked by an LSQ search: queues the retry and opens
    /// the stall-attribution window.
    fn lsq_block(&mut self, core: &mut SchedCore, t: u64, n: NodeId) {
        core.state.open_block(n.index(), t, StallCause::LsqSearch);
        self.blocked.push(n);
    }

    fn wake_blocked(&mut self, core: &mut SchedCore, t: u64) {
        std::mem::swap(&mut self.blocked, &mut self.wake_scratch);
        for &n in &self.wake_scratch {
            core.push(t, Ev::TryMem(n));
        }
        self.wake_scratch.clear();
    }
}

impl DisambiguationPolicy for OptLsqPolicy {
    fn backend(&self) -> Backend {
        Backend::OptLsq
    }

    /// Non-local MDEs never gate issue under the LSQ: FORWARD degenerates
    /// to a queue search hit, ORDER/MAY are discharged by disambiguation.
    fn edge_gate(&self, _kind: EdgeKind) -> EdgeGate {
        EdgeGate::Ignore
    }

    /// Assign program-order ages to the memory ops that need
    /// disambiguation.
    fn prepare_run(&mut self, core: &SchedCore) {
        let config = core.config;
        if self.lsq.config() == &config.lsq {
            self.lsq.reset();
        } else {
            self.lsq = Lsq::new(config.lsq);
        }
        let region = core.region;
        let n = region.dfg.num_nodes();
        self.ages.clear();
        self.ages.resize(n, None);
        self.age_nodes.clear();
        self.kinds.clear();
        let disambig = region.dfg.mem_ops().iter().copied().filter(|&op| {
            node_kind(region, op)
                .mem_ref()
                .is_some_and(nachos_ir::MemRef::needs_disambiguation)
        });
        for (age, node) in disambig.enumerate() {
            self.kinds.push(node_kind(region, node).is_store());
            self.ages[node.index()] = Some(age as u32);
            self.age_nodes.push(node);
        }
        self.alloc_t0 = 0;
    }

    /// Allocate entries in program order with port bandwidth.
    fn after_gating(&mut self, core: &mut SchedCore, t0: u64) {
        let n = self.ages.len();
        self.bound.clear();
        self.bound.resize(n, false);
        self.alloc_charged.clear();
        self.alloc_charged.resize(n, false);
        self.blocked.clear();
        self.alloc_t0 = t0;
        self.lsq.begin_invocation(&self.kinds);
        let apc = u64::from(self.lsq.config().alloc_per_cycle);
        for age in 0..self.age_nodes.len() {
            let cycle = t0 + age as u64 / apc;
            let got = self.lsq.allocate_next(cycle);
            debug_assert_eq!(got, Some(age as u32));
            core.counts.lsq_allocs += 1;
        }
    }

    /// Stores can bind and pre-search as soon as allocated.
    fn on_stores_resolved(&mut self, core: &mut SchedCore, t0: u64, agen: u64) {
        let apc = u64::from(self.lsq.config().alloc_per_cycle);
        for k in 0..core.plan.stores.len() {
            let n = core.plan.stores[k];
            if let Some(age) = self.age_of(n) {
                let at = (t0 + agen).max(t0 + u64::from(age) / apc);
                core.push(at, Ev::TryMem(n));
            }
        }
    }

    fn on_store_data(&mut self, core: &mut SchedCore, t: u64, n: NodeId) {
        if let Some(age) = self.age_of(n) {
            if self.bound[n.index()] {
                self.lsq.mark_data_ready(age);
                self.wake_blocked(core, t);
            }
        }
    }

    /// LSQ memory stage: bind, search, then issue/forward.
    fn admit_mem(&mut self, core: &mut SchedCore, t: u64, n: NodeId, fired: bool) {
        if core.is_scratch(n) {
            // Local accesses bypass the LSQ entirely (the baseline elides
            // them for fairness, §IV Observation 1) — but the compiler's
            // wired scratchpad dependencies (ORDER/MAY token edges from
            // `wire_local_deps`) still gate issue, exactly as they do
            // under the MDE backends.
            let i = n.index();
            if !fired || core.state.token_pending[i] > 0 || core.state.may_pending[i] > 0 {
                if fired {
                    core.state.open_block(i, t, StallCause::Token);
                }
                return;
            }
            core.charge_block_stall(t, n);
            core.state.issued[i] = true;
            core.scratch_access(t, n);
            return;
        }
        let age = self.age_of(n).expect("age assigned");
        let apc = u64::from(self.lsq.config().alloc_per_cycle);
        let alloc_t = self.alloc_t0 + u64::from(age) / apc;
        if t < alloc_t {
            // Address already resolved (checked by the core) but the
            // port-limited in-order allocator has not reached this age.
            if !self.alloc_charged[n.index()] {
                core.stalls.lsq_alloc += alloc_t - t;
                self.alloc_charged[n.index()] = true;
            }
            core.push(alloc_t, Ev::TryMem(n));
            return;
        }
        if !self.bound[n.index()] {
            let (addr, size) = (core.state.addr[n.index()], core.state.size[n.index()]);
            self.lsq.bind_address(age, addr, size);
            self.bound[n.index()] = true;
            if core.node_kind(n).is_store() && fired {
                self.lsq.mark_data_ready(age);
            }
            // A newly-bound address may unblock others.
            self.wake_blocked(core, t);
        }
        let is_store = core.node_kind(n).is_store();
        if is_store {
            match self.lsq.search_store(age) {
                StoreSearch::CanIssue => {
                    // The disambiguation wait (if any) ends here even when
                    // the data operand is still outstanding.
                    core.charge_block_stall(t, n);
                    if !fired {
                        // Search passed (the verdict is monotonic); the
                        // data operand will re-trigger the issue.
                        return;
                    }
                    core.state.issued[n.index()] = true;
                    core.cache_access(t, n, 0);
                }
                StoreSearch::Blocked(_) => self.lsq_block(core, t, n),
            }
        } else {
            match self.lsq.search_load(age) {
                LoadSearch::CanIssue => {
                    core.charge_block_stall(t, n);
                    core.state.issued[n.index()] = true;
                    let penalty = self.lsq.config().load_to_use_penalty;
                    core.cache_access(t, n, penalty);
                }
                LoadSearch::Forward(older_age) => {
                    core.charge_block_stall(t, n);
                    core.state.issued[n.index()] = true;
                    let older = self.age_nodes[older_age as usize];
                    let v = core.state.value[older.index()];
                    let v = core.consume_forward(t, n, v, "LSQ forward into node");
                    core.state.value[n.index()] = v;
                    core.counts.forwards += 1;
                    core.record_load(n, v);
                    let penalty = self.lsq.config().load_to_use_penalty;
                    core.push(t + 1 + penalty, Ev::Complete(n));
                }
                LoadSearch::Blocked(_) => self.lsq_block(core, t, n),
            }
        }
    }

    /// Retirement bookkeeping: completion frees the entry for in-order
    /// retirement and may unblock searches.
    fn on_complete(&mut self, core: &mut SchedCore, t: u64, n: NodeId) {
        if let Some(age) = self.age_of(n) {
            self.lsq.mark_completed(age);
            self.lsq.retire_ready(t);
            self.wake_blocked(core, t);
        }
    }

    /// Drain the LSQ so the next invocation can begin (bounded by the
    /// same budget: with all nodes complete the drain terminates, but the
    /// watchdog guards the loop all the same).
    fn end_invocation(
        &mut self,
        core: &mut SchedCore,
        deadline: u64,
        budget: u64,
    ) -> Result<(), SimError> {
        let mut t = core.clock;
        while !self.lsq.is_drained() {
            if t > deadline {
                return Err(core.deadlock(DeadlockCause::BudgetExhausted, t, budget));
            }
            self.lsq.retire_ready(t);
            t += 1;
        }
        core.clock = core.clock.max(t);
        Ok(())
    }

    fn finalize(&mut self, counts: &mut EventCounts) -> BloomStats {
        let lsq_stats = self.lsq.stats();
        let bloom = self.lsq.bloom_stats();
        counts.lsq_bloom_queries = bloom.queries;
        counts.lsq_bloom_hits = bloom.hits;
        counts.lsq_cam_loads = lsq_stats.cam_load_searches;
        counts.lsq_cam_stores = lsq_stats.cam_store_searches;
        counts.lsq_bank_overflows = lsq_stats.bank_overflows;
        bloom
    }
}
