//! Per-node scheduler state and the event vocabulary shared by the core
//! and every disambiguation policy.
//!
//! Node state is laid out as a structure of arrays ([`NodeTable`]):
//! every field is a dense vector indexed by `NodeId`. The scheduler's
//! inner loop touches one or two fields of many nodes per cycle —
//! readiness counters on token delivery, completion stamps on fan-out —
//! so parallel arrays keep each access within a few hot cache lines
//! instead of striding over 80-byte AoS records.

use nachos_ir::NodeId;

use super::plan::RunPlan;

#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Ev {
    /// A data or forward payload arrived at `node`.
    Data(NodeId),
    /// An ordering token arrived at `node`.
    Token(NodeId),
    /// One MAY gate of `node` released.
    Release(NodeId),
    /// Re-attempt the memory stage of `node`.
    TryMem(NodeId),
    /// `node` finished (value available / store performed).
    Complete(NodeId),
}

/// The ordering mechanism a blocked memory op is charged against.
///
/// Public because the telemetry stream's backpressure events carry it;
/// the engine's stall-attribution buckets aggregate the same causes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StallCause {
    /// Blocked on an LSQ disambiguation search (OPT-LSQ).
    LsqSearch,
    /// Waiting on MUST/ORDER completion tokens.
    Token,
    /// Waiting on an unresolved MAY gate.
    MayGate,
}

impl StallCause {
    /// Stable lowercase label used in the telemetry stream.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            StallCause::LsqSearch => "lsq_search",
            StallCause::Token => "token",
            StallCause::MayGate => "may_gate",
        }
    }
}

/// Sentinel for "no cycle recorded" in the dense cycle columns. The
/// watchdog bounds real cycles far below it.
pub(crate) const NO_CYCLE: u64 = u64::MAX;

/// Structure-of-arrays per-node scheduler state, reset each invocation.
///
/// Cycle-valued columns (`fired`, `addr_ready`, `completed`,
/// `blocked_at`) use [`NO_CYCLE`] as "unset"; the accessors expose the
/// `Option` view where call sites need it.
#[derive(Default)]
pub(crate) struct NodeTable {
    /// Outstanding data/forward operands before the node can fire.
    pub(crate) data_pending: Vec<u32>,
    /// Outstanding ordering tokens before the memory stage may proceed.
    pub(crate) token_pending: Vec<u32>,
    /// Outstanding MAY-gate releases before the memory stage may proceed.
    pub(crate) may_pending: Vec<u32>,
    /// Cycle the node fired ([`NO_CYCLE`] = not yet).
    pub(crate) fired: Vec<u64>,
    /// Cycle the node's address became known ([`NO_CYCLE`] = unknown).
    pub(crate) addr_ready: Vec<u64>,
    /// Cycle the node completed ([`NO_CYCLE`] = incomplete).
    pub(crate) completed: Vec<u64>,
    pub(crate) addr: Vec<u64>,
    pub(crate) size: Vec<u8>,
    pub(crate) value: Vec<u64>,
    pub(crate) issued: Vec<bool>,
    /// First cycle a ready memory stage was observed blocked
    /// ([`NO_CYCLE`] = no open window).
    pub(crate) blocked_at: Vec<u64>,
    /// The mechanism charged for the open window (meaningful only while
    /// `blocked_at` is set).
    pub(crate) blocked_cause: Vec<StallCause>,
}

impl NodeTable {
    /// Number of nodes in the table.
    pub(crate) fn len(&self) -> usize {
        self.completed.len()
    }

    /// Resets every column to the default state for `n` nodes, keeping
    /// capacity.
    pub(crate) fn reset(&mut self, n: usize) {
        fn refill<T: Copy>(v: &mut Vec<T>, n: usize, x: T) {
            v.clear();
            v.resize(n, x);
        }
        refill(&mut self.data_pending, n, 0);
        refill(&mut self.token_pending, n, 0);
        refill(&mut self.may_pending, n, 0);
        refill(&mut self.fired, n, NO_CYCLE);
        refill(&mut self.addr_ready, n, NO_CYCLE);
        refill(&mut self.completed, n, NO_CYCLE);
        refill(&mut self.addr, n, 0);
        refill(&mut self.size, n, 0);
        refill(&mut self.value, n, 0);
        refill(&mut self.issued, n, false);
        refill(&mut self.blocked_at, n, NO_CYCLE);
        refill(&mut self.blocked_cause, n, StallCause::Token);
    }

    /// Resets every column for a new invocation, taking the pending
    /// counters from the run's precomputed initial census.
    pub(crate) fn reset_from(&mut self, plan: &RunPlan) {
        self.reset(plan.data_pending.len());
        self.data_pending.copy_from_slice(&plan.data_pending);
        self.token_pending.copy_from_slice(&plan.token_pending);
        self.may_pending.copy_from_slice(&plan.may_pending);
    }

    #[inline]
    pub(crate) fn has_fired(&self, i: usize) -> bool {
        self.fired[i] != NO_CYCLE
    }

    #[inline]
    pub(crate) fn addr_ready_at(&self, i: usize) -> Option<u64> {
        let t = self.addr_ready[i];
        (t != NO_CYCLE).then_some(t)
    }

    #[inline]
    pub(crate) fn completed_at(&self, i: usize) -> Option<u64> {
        let t = self.completed[i];
        (t != NO_CYCLE).then_some(t)
    }

    #[inline]
    pub(crate) fn is_completed(&self, i: usize) -> bool {
        self.completed[i] != NO_CYCLE
    }

    /// Opens the stall-attribution window if none is open.
    #[inline]
    pub(crate) fn open_block(&mut self, i: usize, t: u64, cause: StallCause) {
        if self.blocked_at[i] == NO_CYCLE {
            self.blocked_at[i] = t;
            self.blocked_cause[i] = cause;
        }
    }

    /// Closes and returns the open stall-attribution window, if any.
    #[inline]
    pub(crate) fn take_block(&mut self, i: usize) -> Option<(u64, StallCause)> {
        let since = self.blocked_at[i];
        if since == NO_CYCLE {
            return None;
        }
        self.blocked_at[i] = NO_CYCLE;
        Some((since, self.blocked_cause[i]))
    }
}
