//! The backend-agnostic scheduler core.
//!
//! [`SchedCore`] owns everything every disambiguation scheme shares: the
//! event calendar, operand readiness and firing, functional execution,
//! scratchpad and cache access, memory-port arbitration, stall-window
//! accounting, fault-injection polling and the deadlock watchdog. It
//! contains **zero** backend-specific branches — every point where the
//! schemes diverge is a call through the
//! [`DisambiguationPolicy`](super::policy::DisambiguationPolicy) trait.
//!
//! Hot-path layout: per-node state is a structure of arrays
//! ([`NodeTable`]), events flow through the slab-backed calendar queue
//! ([`EventQueue`]), everything derivable from the region, placement and
//! backend alone is computed once per run into a [`RunPlan`], and an
//! optional [`TelemetrySink`] observes cycle boundaries and backpressure
//! windows without perturbing either.

use crate::config::{Backend, CancelToken, SimConfig};
use crate::energy::EventCounts;
use crate::error::{DeadlockCause, DeadlockInfo, SimError, StalledNode, WaitForEdge};
use crate::fault::{FaultClass, FaultKind, FaultState};
use crate::value::{apply, LoadObserver};
use nachos_cgra::Placement;
use nachos_ir::{Binding, EdgeKind, NodeId, OpKind, Region};
use nachos_mem::{DataMemory, MemoryHierarchy};

use super::arena::CoreBufs;
use super::calendar::Calendar;
use super::plan::{OutClass, OutEdge, RunPlan};
use super::policy::{DisambiguationPolicy, EdgeGate};
use super::queue::EventQueue;
use super::state::{Ev, NodeTable, StallCause};
use super::telemetry::{BackpressureEvent, CycleRecord, RunSummary, TelemetrySink};
use super::StallCounts;

/// The shared execution substrate. Policies reach into the `pub(crate)`
/// fields for state/counters and call the `pub(crate)` methods for event
/// scheduling and memory access; the core itself never inspects which
/// policy is driving it (the `backend` field is carried for diagnostics
/// and fault-scoping only).
pub(crate) struct SchedCore<'a> {
    pub(crate) region: &'a Region,
    pub(crate) binding: &'a Binding,
    pub(crate) backend: Backend,
    pub(crate) config: &'a SimConfig,
    pub(crate) placement: Placement,
    pub(crate) hierarchy: MemoryHierarchy,
    pub(crate) mem: DataMemory,
    pub(crate) loads: LoadObserver,
    pub(crate) counts: EventCounts,
    pub(crate) clock: u64,
    /// Run-invariant gate census, fan-out tables and store list.
    pub(crate) plan: RunPlan,
    /// Per-invocation node state (reset each invocation), SoA layout.
    pub(crate) state: NodeTable,
    pub(crate) mem_ports: Calendar,
    /// Cycle-weighted stall attribution for the whole run.
    pub(crate) stalls: StallCounts,
    /// Fault-injection opportunity counters and fired-fault log.
    pub(crate) fault: FaultState,
    queue: EventQueue,
    /// Opt-in observer; `None` costs one branch per event.
    sink: Option<&'a mut dyn TelemetrySink>,
    /// Events handled at the current `clock` cycle (telemetry census).
    cyc_events: u64,
    pub(crate) inv: u64,
    pub(crate) iv: Vec<i64>,
    pub(crate) unknown_vals: Vec<u64>,
}

/// Node kind lookup that borrows only the region (usable while `self` is
/// otherwise mutably borrowed).
pub(crate) fn node_kind(region: &Region, n: NodeId) -> &OpKind {
    &region.dfg.node(n).kind
}

impl<'a> SchedCore<'a> {
    /// Sets up a run, building its [`RunPlan`] with the backend's
    /// run-invariant edge `gate`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        region: &'a Region,
        binding: &'a Binding,
        backend: Backend,
        config: &'a SimConfig,
        placement: Placement,
        bufs: &mut CoreBufs,
        sink: Option<&'a mut dyn TelemetrySink>,
        gate: impl Fn(EdgeKind) -> EdgeGate,
    ) -> Self {
        let mut plan = std::mem::take(&mut bufs.plan);
        plan.build(region, &placement, &config.latency, gate);
        let mut state = std::mem::take(&mut bufs.state);
        state.reset_from(&plan);
        let mut queue = std::mem::take(&mut bufs.queue);
        queue.clear();
        let hierarchy = match bufs.hierarchy.take() {
            Some(mut h) if *h.config() == config.hierarchy => {
                h.reset();
                h
            }
            _ => MemoryHierarchy::new(config.hierarchy),
        };
        let mem_ports = Calendar::from_parts(config.mem_ports, std::mem::take(&mut bufs.ports));
        Self {
            region,
            binding,
            backend,
            config,
            placement,
            hierarchy,
            mem: DataMemory::new(),
            loads: LoadObserver::new(),
            counts: EventCounts::default(),
            clock: 0,
            plan,
            state,
            mem_ports,
            stalls: StallCounts::default(),
            fault: FaultState::default(),
            queue,
            sink,
            cyc_events: 0,
            inv: 0,
            iv: std::mem::take(&mut bufs.iv),
            unknown_vals: std::mem::take(&mut bufs.unknown_vals),
        }
    }

    /// Returns the reusable buffers to the arena.
    pub(crate) fn reclaim(self, bufs: &mut CoreBufs) {
        let Self {
            plan,
            mut state,
            mut queue,
            mem_ports,
            hierarchy,
            iv,
            unknown_vals,
            ..
        } = self;
        state.reset(0);
        queue.clear();
        bufs.plan = plan;
        bufs.state = state;
        bufs.queue = queue;
        bufs.ports = mem_ports.into_used();
        bufs.hierarchy = Some(hierarchy);
        bufs.iv = iv;
        bufs.unknown_vals = unknown_vals;
    }

    pub(crate) fn push(&mut self, at: u64, ev: Ev) {
        self.queue.push(at, ev);
    }

    pub(crate) fn node_kind(&self, n: NodeId) -> &OpKind {
        node_kind(self.region, n)
    }

    pub(crate) fn is_scratch(&self, n: NodeId) -> bool {
        self.plan.is_scratch(n)
    }

    /// Emits the per-cycle telemetry census for the current `clock`
    /// cycle, if a sink is attached and the cycle handled any events.
    fn flush_cycle(&mut self) {
        if self.cyc_events == 0 {
            return;
        }
        let rec = CycleRecord {
            cycle: self.clock,
            invocation: self.inv,
            events: self.cyc_events,
            queue_depth: self.queue.len() as u64,
            stalls: self.stalls,
            may_checks: self.counts.may_checks,
        };
        self.cyc_events = 0;
        if let Some(s) = self.sink.as_mut() {
            s.on_cycle(&rec);
        }
    }

    pub(crate) fn run_invocation<P: DisambiguationPolicy>(
        &mut self,
        policy: &mut P,
        inv: u64,
    ) -> Result<(), SimError> {
        self.inv = inv;
        let t0 = self.clock;
        let region = self.region;
        let nest_total = region.loops.total_invocations().max(1);
        self.iv.clear();
        if !region.loops.is_empty() {
            let mut iv = std::mem::take(&mut self.iv);
            region
                .loops
                .iteration_vector_into(inv % nest_total, &mut iv);
            self.iv = iv;
        }
        let mut unknown_vals = std::mem::take(&mut self.unknown_vals);
        self.binding.unknown_values_into(inv, &mut unknown_vals);
        self.unknown_vals = unknown_vals;

        // Reset per-invocation node state from the run's gate census
        // (the backend's run-invariant gating, fixed in the plan), then
        // let the policy add its per-invocation gates and program-order
        // setup: LSQ allocation, MAY-site reset, oracle gating.
        self.state.reset_from(&self.plan);
        policy.after_gating(self, t0);

        // Invocations are block-atomic: no event before t0 can be claimed
        // again, so drop the port calendar's history (unbounded otherwise).
        self.mem_ports.prune_below(t0);

        // Store addresses resolve from index computation, independent of
        // the (possibly late) data operand — like the separate
        // address/data paths of a real LSQ, and like Figure 13's
        // comparator receiving store addresses before the stores execute.
        let agen = self.config.latency.mem_agen;
        for k in 0..self.plan.stores.len() {
            let n = self.plan.stores[k];
            let (addr, size) = self.eval_mem_ref(n);
            let i = n.index();
            self.state.addr[i] = addr;
            self.state.size[i] = size;
            self.state.addr_ready[i] = t0 + agen;
        }
        policy.on_stores_resolved(self, t0, agen);

        // Seed source nodes: zero data operands, so they fire at once.
        for k in 0..self.plan.sources.len() {
            let n = self.plan.sources[k];
            self.push(t0, Ev::Data(n));
        }

        // Event loop, under the watchdog's cycle budget. A healthy
        // invocation finishes orders of magnitude below the budget; only
        // a zero-progress hang (e.g. a livelocked retry chain) can reach
        // the deadline. The cooperative cancellation token is polled at
        // the same granularity as the watchdog check: once per event, so
        // a supervisor can stop a run within one simulated cycle without
        // killing the worker thread.
        let budget = self.config.watchdog.budget(region.dfg.num_nodes());
        let deadline = t0.saturating_add(budget);
        let cancel = self.config.cancel.clone();
        while let Some((t, ev)) = self.queue.pop() {
            debug_assert!(t >= t0);
            if t > deadline {
                return Err(self.deadlock(DeadlockCause::BudgetExhausted, t, budget));
            }
            if cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
                return Err(SimError::Cancelled {
                    backend: self.backend,
                    invocation: self.inv,
                    cycle: t,
                });
            }
            self.handle(policy, t, ev)?;
        }

        // The queue drained: every node must have completed. A node left
        // incomplete means some gate never opened — a dropped token, a
        // never-released MAY gate — and the run would silently produce
        // partial results. Convert the starvation into a diagnosed
        // deadlock instead.
        if self.state.completed.contains(&super::state::NO_CYCLE) {
            let at = self.clock;
            return Err(self.deadlock(DeadlockCause::Starved, at, budget));
        }

        // Close the invocation's last cycle in the telemetry stream
        // before the drain advances the clock event-free.
        if self.sink.is_some() {
            self.flush_cycle();
        }

        // Let the policy drain its structures (e.g. LSQ retirement) so the
        // next invocation can begin; bounded by the same budget.
        policy.end_invocation(self, deadline, budget)?;

        // Count this invocation's span; leave one idle cycle between
        // block-atomic invocations.
        self.clock += 1;
        Ok(())
    }

    /// Evaluates a memory op's reference against the current invocation's
    /// binding context.
    pub(crate) fn eval_mem_ref(&self, n: NodeId) -> (u64, u8) {
        let mref = node_kind(self.region, n).mem_ref().expect("mem op");
        let ctx = self.binding.eval_ctx(&self.iv, &self.unknown_vals);
        (mref.eval(&ctx), mref.size)
    }

    /// Polls the fault injector at one opportunity of `class`.
    pub(crate) fn poll_fault(&mut self, class: FaultClass) -> Option<FaultKind> {
        self.fault.poll(&self.config.fault, self.backend, class)
    }

    /// Delivers an ordering token to `dst` at `at`, counting the delivery
    /// as a token fault-injection opportunity (drop / duplicate).
    pub(crate) fn push_token(&mut self, at: u64, dst: NodeId) {
        match self.poll_fault(FaultClass::TokenDelivery) {
            Some(FaultKind::DropToken) => {
                self.fault.record(
                    FaultKind::DropToken,
                    at,
                    &format!("token to node {}", dst.index()),
                );
            }
            Some(FaultKind::DuplicateToken) => {
                self.fault.record(
                    FaultKind::DuplicateToken,
                    at,
                    &format!("token to node {}", dst.index()),
                );
                self.push(at, Ev::Token(dst));
                self.push(at, Ev::Token(dst));
            }
            _ => self.push(at, Ev::Token(dst)),
        }
    }

    /// Builds the deadlock diagnostic: every incomplete node with its
    /// outstanding gate counts, plus the wait-for edges among them.
    pub(crate) fn deadlock(&mut self, cause: DeadlockCause, cycle: u64, budget: u64) -> SimError {
        let mut incomplete = vec![false; self.state.len()];
        let mut stalled = Vec::new();
        for n in self.region.dfg.node_ids() {
            let i = n.index();
            if !self.state.is_completed(i) {
                incomplete[i] = true;
                stalled.push(StalledNode {
                    node: i,
                    data_pending: self.state.data_pending[i],
                    token_pending: self.state.token_pending[i],
                    may_pending: self.state.may_pending[i],
                    fired: self.state.has_fired(i),
                    issued: self.state.issued[i],
                });
            }
        }
        let mut wait_for = Vec::new();
        for n in self.region.dfg.node_ids() {
            if !incomplete[n.index()] {
                continue;
            }
            for e in self.region.dfg.in_edges(n) {
                if incomplete[e.src.index()] {
                    let kind = match e.kind {
                        EdgeKind::Data => "data",
                        EdgeKind::Order => "order",
                        EdgeKind::Forward => "forward",
                        EdgeKind::May => "may",
                    };
                    wait_for.push(WaitForEdge {
                        from: e.src.index(),
                        to: n.index(),
                        kind: kind.into(),
                    });
                }
            }
        }
        SimError::Deadlock(Box::new(DeadlockInfo {
            backend: self.backend,
            invocation: self.inv,
            cycle,
            budget,
            cause,
            stalled,
            wait_for,
            stalls: self.stalls,
            injected: self.fault.fired.clone(),
        }))
    }

    fn handle<P: DisambiguationPolicy>(
        &mut self,
        policy: &mut P,
        t: u64,
        ev: Ev,
    ) -> Result<(), SimError> {
        if t > self.clock {
            if self.sink.is_some() {
                self.flush_cycle();
            }
            self.clock = t;
        }
        self.cyc_events += 1;
        if let Some(FaultKind::PanicOnEvent) = self.poll_fault(FaultClass::Event) {
            // Deliberate: exercises the sweep harness's per-run panic
            // isolation (`catch_unwind` at the worker boundary).
            panic!("injected fault: panic-on-event at cycle {t} handling {ev:?}");
        }
        match ev {
            Ev::Data(n) => {
                let i = n.index();
                if self.state.has_fired(i) {
                    return Ok(());
                }
                self.state.data_pending[i] = self.state.data_pending[i].saturating_sub(1);
                if self.state.data_pending[i] == 0 {
                    self.fire(policy, t, n);
                }
            }
            Ev::Token(n) => {
                let i = n.index();
                match self.state.token_pending[i].checked_sub(1) {
                    Some(left) => self.state.token_pending[i] = left,
                    None => {
                        return Err(SimError::ProtocolViolation {
                            backend: self.backend,
                            node: i,
                            message: "ordering-token underflow: an extra completion \
                                      token arrived"
                                .into(),
                        });
                    }
                }
                self.push(t, Ev::TryMem(n));
            }
            Ev::Release(n) => {
                let i = n.index();
                match self.state.may_pending[i].checked_sub(1) {
                    Some(left) => self.state.may_pending[i] = left,
                    None => {
                        return Err(SimError::ProtocolViolation {
                            backend: self.backend,
                            node: i,
                            message: "MAY-gate release underflow: an extra comparator \
                                      release arrived"
                                .into(),
                        });
                    }
                }
                self.push(t, Ev::TryMem(n));
            }
            Ev::TryMem(n) => self.try_mem(policy, t, n),
            Ev::Complete(n) => self.complete(policy, t, n),
        }
        Ok(())
    }

    /// All data (and forward) operands have arrived: start execution.
    fn fire<P: DisambiguationPolicy>(&mut self, policy: &mut P, t: u64, n: NodeId) {
        self.state.fired[n.index()] = t;
        let region = self.region;
        let kind = node_kind(region, n);
        match kind {
            OpKind::Load(_) => {
                // Count address generation as an integer ALU event.
                self.counts.int_ops += 1;
                let (addr, size) = self.eval_mem_ref(n);
                let agen = self.config.latency.mem_agen;
                let addr_t = t + agen;
                let i = n.index();
                self.state.addr[i] = addr;
                self.state.size[i] = size;
                self.state.addr_ready[i] = addr_t;
                policy.on_load_address(self, addr_t, n);
                self.push(addr_t, Ev::TryMem(n));
            }
            OpKind::Store(_) => {
                // Address was resolved at invocation start; firing means
                // the data operand is now available.
                self.counts.int_ops += 1;
                let v = self.eval_node(n);
                self.state.value[n.index()] = v;
                policy.on_store_data(self, t, n);
                // Forwarding happens from the *in-flight* value: the
                // moment the store's data operand exists, it can be
                // routed to forwarded loads — before the store commits.
                for k in self.plan.out_range(n) {
                    let OutEdge { dst, class, route } = self.plan.out_edge(k);
                    match class {
                        OutClass::LocalForward => {
                            self.counts.data_links += 1;
                            self.push(t + route, Ev::Data(dst));
                        }
                        OutClass::Forward => policy.on_forward_edge(self, t + route, dst),
                        _ => {}
                    }
                }
                let ready = self.state.addr_ready[n.index()];
                debug_assert_ne!(ready, super::state::NO_CYCLE, "set at start");
                self.push(ready.max(t), Ev::TryMem(n));
            }
            OpKind::Int(_) => {
                self.counts.int_ops += 1;
                let v = self.eval_node(n);
                self.state.value[n.index()] = v;
                self.push(t + self.config.latency.op_latency(kind), Ev::Complete(n));
            }
            OpKind::Fp(_) => {
                self.counts.fp_ops += 1;
                let v = self.eval_node(n);
                self.state.value[n.index()] = v;
                self.push(t + self.config.latency.op_latency(kind), Ev::Complete(n));
            }
            OpKind::Input { .. } | OpKind::Const { .. } | OpKind::Output => {
                let v = self.eval_node(n);
                self.state.value[n.index()] = v;
                self.push(t, Ev::Complete(n));
            }
        }
    }

    /// Applies a node's operator to its data operands, streamed from the
    /// value column in the plan's operand order.
    fn eval_node(&self, n: NodeId) -> u64 {
        let values = &self.state.value;
        let operands = self.plan.data_sources(n).iter().map(|s| values[s.index()]);
        apply(node_kind(self.region, n), operands, self.inv)
    }

    /// Attempts the memory stage of a load/store: the core checks address
    /// readiness, the policy decides admission. (Under OPT-LSQ, stores may
    /// bind and pre-search before their data operand arrives; issuing to
    /// the cache always requires the node to have fired.)
    fn try_mem<P: DisambiguationPolicy>(&mut self, policy: &mut P, t: u64, n: NodeId) {
        let i = n.index();
        if self.state.issued[i] {
            return;
        }
        let Some(addr_t) = self.state.addr_ready_at(i) else {
            return;
        };
        if t < addr_t {
            return;
        }
        let fired = self.state.has_fired(i);
        policy.admit_mem(self, t, n, fired);
    }

    /// Closes a memory op's stall-attribution window (opened when a ready
    /// op was observed blocked) and charges the recorded mechanism.
    pub(crate) fn charge_block_stall(&mut self, t: u64, n: NodeId) {
        if let Some((since, cause)) = self.state.take_block(n.index()) {
            let cycles = t.saturating_sub(since);
            match cause {
                StallCause::LsqSearch => self.stalls.lsq_search += cycles,
                StallCause::Token => self.stalls.token += cycles,
                StallCause::MayGate => self.stalls.may_gate += cycles,
            }
            if self.sink.is_some() {
                let ev = BackpressureEvent {
                    invocation: self.inv,
                    node: n.index(),
                    cause,
                    from: since,
                    until: t,
                };
                if let Some(s) = self.sink.as_mut() {
                    s.on_backpressure(&ev);
                }
            }
        }
    }

    /// The gate-free memory stage: all ordering gates passed, go to memory
    /// (or consume the forwarded value).
    pub(crate) fn issue_dataflow(&mut self, t: u64, n: NodeId) {
        self.charge_block_stall(t, n);
        let is_load = self.node_kind(n).is_load();
        if self.is_scratch(n) {
            self.state.issued[n.index()] = true;
            self.scratch_access(t, n);
            return;
        }
        if let Some(src) = self.plan.forward_source(n).filter(|_| is_load) {
            // Memory dependence became a data dependence: no cache access.
            self.state.issued[n.index()] = true;
            let v = self.state.value[src.index()];
            let v = self.consume_forward(t, n, v, "forward into node");
            self.state.value[n.index()] = v;
            self.counts.forwards += 1;
            self.record_load(n, v);
            self.push(t + 1, Ev::Complete(n));
            return;
        }
        self.state.issued[n.index()] = true;
        self.cache_access(t, n, 0);
    }

    /// Applies the forward-consume fault hook (possible value corruption)
    /// to a forwarded value.
    pub(crate) fn consume_forward(&mut self, t: u64, n: NodeId, mut v: u64, what: &str) -> u64 {
        if let Some(FaultKind::CorruptForward { mask }) =
            self.poll_fault(FaultClass::ForwardConsume)
        {
            self.fault.record(
                FaultKind::CorruptForward { mask },
                t,
                &format!("{what} {}", n.index()),
            );
            v ^= mask;
        }
        v
    }

    /// Performs the scratchpad access: 1-cycle latency, no cache energy.
    pub(crate) fn scratch_access(&mut self, t: u64, n: NodeId) {
        let is_load = self.node_kind(n).is_load();
        let i = n.index();
        let (addr, size) = (self.state.addr[i], self.state.size[i]);
        if is_load {
            let v = self.mem.read(addr, size);
            self.state.value[i] = v;
            self.record_load(n, v);
        } else {
            let v = self.state.value[i];
            self.mem.write(addr, size, v);
        }
        self.push(t + 1, Ev::Complete(n));
    }

    /// Issues a cache access through the edge ports; performs the
    /// functional read/write at the issue cycle.
    pub(crate) fn cache_access(&mut self, t: u64, n: NodeId, mut extra_latency: u64) {
        if let Some(FaultKind::DelayMem { cycles }) = self.poll_fault(FaultClass::MemResponse) {
            self.fault.record(
                FaultKind::DelayMem { cycles },
                t,
                &format!("response to node {}", n.index()),
            );
            extra_latency += cycles;
        }
        let issue = self.mem_ports.claim(t);
        // Cycles spent queued for an edge memory port.
        self.stalls.mem_port += issue - t;
        let is_load = self.node_kind(n).is_load();
        let i = n.index();
        let (addr, size) = (self.state.addr[i], self.state.size[i]);
        let hops = self.placement.hops_to_mem(n);
        // Request + response each traverse the FU<->cache connection once.
        self.counts.mem_links += 2;
        self.counts.l1_accesses += 1;
        let res = self.hierarchy.access(addr, !is_load, issue);
        if is_load {
            let v = self.mem.read(addr, size);
            self.state.value[i] = v;
            self.record_load(n, v);
        } else {
            let v = self.state.value[i];
            self.mem.write(addr, size, v);
        }
        let route = self.config.latency.route_latency(hops);
        self.push(res.complete_at + extra_latency + route, Ev::Complete(n));
    }

    pub(crate) fn record_load(&mut self, n: NodeId, v: u64) {
        let slot = self
            .region
            .dfg
            .node(n)
            .mem_slot
            .expect("load has a slot")
            .index();
        self.loads.record(self.inv, slot, v);
    }

    /// A node finished: propagate values, tokens and completion wakeups.
    fn complete<P: DisambiguationPolicy>(&mut self, policy: &mut P, t: u64, n: NodeId) {
        if self.state.is_completed(n.index()) {
            return;
        }
        self.state.completed[n.index()] = t;
        for k in self.plan.out_range(n) {
            let OutEdge { dst, class, route } = self.plan.out_edge(k);
            let at = t + route;
            match class {
                OutClass::Data => {
                    self.counts.data_links += 1;
                    self.push(at, Ev::Data(dst));
                }
                // Forward payloads were already sent when the store's
                // value became available (see the Store arm of `fire`).
                OutClass::LocalForward | OutClass::Forward => {}
                // Local (scratchpad) dependencies are register dataflow:
                // honoured everywhere, no MDE energy.
                OutClass::LocalToken => self.push_token(at, dst),
                OutClass::Order => policy.on_completion_edge(self, at, dst, EdgeKind::Order),
                OutClass::May => policy.on_completion_edge(self, at, dst, EdgeKind::May),
            }
        }
        policy.on_complete(self, t, n);
    }

    pub(crate) fn finish<P: DisambiguationPolicy>(
        &mut self,
        policy: &mut P,
        energy: &crate::energy::EnergyModel,
    ) -> super::SimResult {
        let mut counts = self.counts;
        let bloom = policy.finalize(&mut counts);
        let breakdown = crate::energy::EnergyBreakdown::from_events(&counts, energy);
        let injected = std::mem::take(&mut self.fault.fired);
        // Distinct younger operations carrying a `==?` comparator: each
        // MAY-edge destination hosts one site, however many parents fan
        // in. Scratchpad-local MAY edges become plain tokens (no check).
        let mut site_at = vec![false; self.region.dfg.num_nodes()];
        for e in self.region.dfg.edges() {
            if e.kind == EdgeKind::May && !(self.is_scratch(e.src) && self.is_scratch(e.dst)) {
                site_at[e.dst.index()] = true;
            }
        }
        let comparator_sites = site_at.iter().filter(|&&s| s).count() as u64;
        let queue_events = self.queue.pushes();
        let heap_max_depth = self.queue.max_depth();
        if self.sink.is_some() {
            self.flush_cycle();
            let summary = RunSummary {
                backend: self.backend,
                cycles: self.clock,
                invocations: self.config.invocations,
                queue_events,
                heap_max_depth,
                stalls: self.stalls,
            };
            if let Some(s) = self.sink.as_mut() {
                s.on_run_end(&summary);
            }
        }
        super::SimResult {
            backend: self.backend,
            cycles: self.clock,
            invocations: self.config.invocations,
            events: counts,
            energy: breakdown,
            mem: std::mem::replace(&mut self.mem, DataMemory::new()),
            loads: std::mem::replace(&mut self.loads, LoadObserver::new()),
            l1: self.hierarchy.l1_stats(),
            llc: self.hierarchy.llc_stats(),
            bloom,
            stalls: self.stalls,
            comparator_sites,
            queue_events,
            heap_max_depth,
            injected,
        }
    }
}
