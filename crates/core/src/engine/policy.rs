//! The disambiguation-policy layer.
//!
//! [`DisambiguationPolicy`] is the seam between the backend-agnostic
//! scheduler core and a memory-ordering scheme. Each hook corresponds to
//! one decision point the paper's backends disagree on:
//!
//! | hook                  | decision                                        |
//! |-----------------------|-------------------------------------------------|
//! | `edge_gate`           | op-issue gating: how a non-local MDE gates issue |
//! | `prepare_run`         | per-run tables (ages, MAY sites, oracle edges)   |
//! | `after_gating`        | per-invocation setup (LSQ alloc, site reset)     |
//! | `on_stores_resolved`  | early store-address broadcast                    |
//! | `on_load_address`     | load-address broadcast (comparator wake-up)      |
//! | `on_store_data`       | store data-ready (LSQ data path)                 |
//! | `on_forward_edge`     | routing a forwarded value over the mesh          |
//! | `admit_mem`           | memory-request admission + stall attribution     |
//! | `on_completion_edge`  | completion/release token fan-out                 |
//! | `on_complete`         | completion bookkeeping (waiter release, retire)  |
//! | `end_invocation`      | drain backend structures between invocations     |
//! | `finalize`            | backend-specific event counters                  |
//!
//! A new scheme (speculative, scratchpad-routed, hybrid…) is a new
//! implementation of this trait under `policy/` — not an engine fork.

use crate::config::Backend;
use crate::energy::EventCounts;
use crate::error::SimError;
use nachos_ir::{EdgeKind, NodeId};
use nachos_lsq::BloomStats;

use super::core::SchedCore;
use super::state::StallCause;

pub(crate) mod ideal;
pub(crate) mod nachos_hw;
pub(crate) mod nachos_sw;
pub(crate) mod optlsq;

/// How one incoming dependence edge gates its destination node's issue.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum EdgeGate {
    /// Counts toward operand readiness (the node cannot fire without it).
    Data,
    /// Counts as an ordering token the memory stage must collect.
    Token,
    /// Counts as an unresolved MAY gate awaiting a comparator release.
    May,
    /// The backend discharges the dependence by other means (or proves it
    /// vacuous): no gate.
    Ignore,
}

/// One memory-disambiguation scheme, driven by the scheduler core.
///
/// Implementations own all backend-specific state (LSQ, MAY-edge tables,
/// conflict waiters) and reach into the core's `pub(crate)` surface for
/// event scheduling, node state and counters. Hooks that push events must
/// preserve the core's deterministic push order — event sequence numbers
/// are tie-breakers, so reordering pushes changes timing.
pub(crate) trait DisambiguationPolicy {
    /// The backend this policy implements (diagnostics / fault scoping).
    fn backend(&self) -> Backend;

    /// Classifies how a non-local memory-dependence edge of `kind`
    /// (FORWARD, ORDER or MAY; never DATA, never scratchpad-local) gates
    /// its destination. The answer must hold for the whole run: the core
    /// folds it into the run's [`RunPlan`](super::plan::RunPlan) once. A
    /// gate that depends on the invocation (IDEAL's oracle) is
    /// [`EdgeGate::Ignore`] here and added in
    /// [`after_gating`](Self::after_gating).
    fn edge_gate(&self, kind: EdgeKind) -> EdgeGate;

    /// Resets all per-run state so a pooled policy can be reused by a new
    /// simulation, and builds the policy's run-invariant tables from the
    /// core's region, placement and plan. Runs once, before the first
    /// invocation.
    fn prepare_run(&mut self, core: &SchedCore);

    /// Per-invocation setup after the core reset every node's gates from
    /// the plan: LSQ allocation, comparator-site reset, oracle gating.
    fn after_gating(&mut self, _core: &mut SchedCore, _t0: u64) {}

    /// Store addresses resolved (all of `core.plan.stores`, program
    /// order, ready at `t0 + agen`).
    fn on_stores_resolved(&mut self, _core: &mut SchedCore, _t0: u64, _agen: u64) {}

    /// A load's address becomes known at `addr_t` (its node fired).
    fn on_load_address(&mut self, _core: &mut SchedCore, _addr_t: u64, _n: NodeId) {}

    /// A store's data operand arrived at `t` (the store fired).
    fn on_store_data(&mut self, _core: &mut SchedCore, _t: u64, _n: NodeId) {}

    /// A store's non-local FORWARD out-edge payload is routable at `at`.
    fn on_forward_edge(&mut self, _core: &mut SchedCore, _at: u64, _dst: NodeId) {}

    /// Memory-request admission for node `n` (address known and ready at
    /// `t`; `fired` = all data operands arrived). The policy issues the
    /// access, blocks it (attributing the stall), or re-schedules it.
    fn admit_mem(&mut self, core: &mut SchedCore, t: u64, n: NodeId, fired: bool);

    /// A completing node's non-local ORDER/MAY out-edge, with the token
    /// arrival cycle `at` (completion + route).
    fn on_completion_edge(
        &mut self,
        _core: &mut SchedCore,
        _at: u64,
        _dst: NodeId,
        _kind: EdgeKind,
    ) {
    }

    /// Node `n` completed at `t` (after the edge fan-out).
    fn on_complete(&mut self, _core: &mut SchedCore, _t: u64, _n: NodeId) {}

    /// Invocation end: drain backend structures (may advance
    /// `core.clock`); bounded by the watchdog's `deadline`.
    ///
    /// # Errors
    ///
    /// Returns the core's deadlock diagnostic if the drain exceeds the
    /// budget.
    fn end_invocation(
        &mut self,
        _core: &mut SchedCore,
        _deadline: u64,
        _budget: u64,
    ) -> Result<(), SimError> {
        Ok(())
    }

    /// Fills backend-specific event counters (LSQ CAM/bloom activity) and
    /// returns the bloom statistics for the report.
    fn finalize(&mut self, _counts: &mut EventCounts) -> BloomStats {
        BloomStats::default()
    }
}

/// The shared token/MAY-gated admission used by every MDE-based policy
/// (NACHOS-SW, NACHOS, IDEAL): a fired op with a ready address proceeds
/// once its token and MAY gates are clear; otherwise the stall-attribution
/// window opens against the mechanism still holding it.
pub(crate) fn dataflow_admit(core: &mut SchedCore, t: u64, n: NodeId, fired: bool) {
    let i = n.index();
    let tokens = core.state.token_pending[i];
    if !fired || tokens > 0 || core.state.may_pending[i] > 0 {
        // A fired op with a ready address is stalled purely by the
        // ordering mechanism: start the attribution clock.
        if fired {
            let cause = if tokens > 0 {
                StallCause::Token
            } else {
                StallCause::MayGate
            };
            core.state.open_block(i, t, cause);
        }
        return;
    }
    core.issue_dataflow(t, n);
}
