//! [`SimArena`]: pooled engine state for zero-alloc run reuse.
//!
//! A simulation needs a node-state table, an event queue, a port calendar,
//! a cache hierarchy and the policy's own structures (LSQ entries, MAY
//! tables, age vectors). None of that state outlives a run, so the
//! differential sweep used to reallocate all of it 27 × N × 4 times per
//! matrix. An arena instead hands the engine its buffers, takes them back
//! after the run (cleared, capacity intact), and keeps one lazily-built
//! policy per backend that resets instead of reconstructing.
//!
//! Reuse is **behaviour-invisible**: `simulate_in` produces byte-identical
//! results to `simulate` regardless of what ran in the arena before — the
//! golden-snapshot suite pins this down.

use crate::config::{Backend, SimConfig};
use nachos_ir::EdgeKind;
use nachos_mem::MemoryHierarchy;

use super::plan::RunPlan;
use super::policy::ideal::IdealPolicy;
use super::policy::nachos_hw::NachosPolicy;
use super::policy::nachos_sw::NachosSwPolicy;
use super::policy::optlsq::OptLsqPolicy;
use super::policy::{DisambiguationPolicy, EdgeGate};
use super::queue::EventQueue;
use super::state::NodeTable;

/// Scheduler-core buffers pooled across runs. `Default` is an empty (but
/// fully valid) set, so the arena stays usable even if a run panics while
/// holding the buffers.
#[derive(Default)]
pub(crate) struct CoreBufs {
    /// The run-invariant execution plan's tables.
    pub(crate) plan: RunPlan,
    pub(crate) state: NodeTable,
    pub(crate) queue: EventQueue,
    /// The memory-port calendar's slot vector.
    pub(crate) ports: Vec<u32>,
    /// Pooled hierarchy, reused (reset) when the config matches.
    pub(crate) hierarchy: Option<MemoryHierarchy>,
    /// Iteration-vector scratch (loop nest indices).
    pub(crate) iv: Vec<i64>,
    /// Unknown-pointer value scratch.
    pub(crate) unknown_vals: Vec<u64>,
}

/// Mutable access to one concrete pooled policy: the engine matches on
/// this once per run and drives a monomorphized event loop, so the
/// per-event policy hooks inline instead of going through vtable
/// dispatch.
pub(crate) enum PolicyMut<'a> {
    OptLsq(&'a mut OptLsqPolicy),
    NachosSw(&'a mut NachosSwPolicy),
    Nachos(&'a mut NachosPolicy),
    Ideal(&'a mut IdealPolicy),
}

impl PolicyMut<'_> {
    /// The backend's run-invariant gate for a non-local MDE of `kind`.
    pub(crate) fn edge_gate(&self, kind: EdgeKind) -> EdgeGate {
        match self {
            PolicyMut::OptLsq(p) => p.edge_gate(kind),
            PolicyMut::NachosSw(p) => p.edge_gate(kind),
            PolicyMut::Nachos(p) => p.edge_gate(kind),
            PolicyMut::Ideal(p) => p.edge_gate(kind),
        }
    }
}

/// A reusable per-worker simulation arena.
///
/// Hold one per thread and pass it to
/// [`simulate_in`](super::simulate_in),
/// [`run_backend_compiled_in`](crate::run_backend_compiled_in) or
/// [`run_backend_with_stages_in`](crate::run_backend_with_stages_in);
/// each run resets the pooled state instead of reallocating it. Dropping
/// the arena releases everything.
#[derive(Default)]
pub struct SimArena {
    bufs: CoreBufs,
    optlsq: Option<OptLsqPolicy>,
    nachos_sw: Option<NachosSwPolicy>,
    nachos_hw: Option<NachosPolicy>,
    ideal: Option<IdealPolicy>,
}

impl SimArena {
    /// Creates an empty arena.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Splits the arena into the core buffers and the pooled policy for
    /// `backend`, constructing the policy on first use. The policy resets
    /// itself in `prepare_run` once the run's plan exists.
    pub(crate) fn split(
        &mut self,
        backend: Backend,
        config: &SimConfig,
    ) -> (&mut CoreBufs, PolicyMut<'_>) {
        let Self {
            bufs,
            optlsq,
            nachos_sw,
            nachos_hw,
            ideal,
        } = self;
        let policy = match backend {
            Backend::OptLsq => {
                PolicyMut::OptLsq(optlsq.get_or_insert_with(|| OptLsqPolicy::new(config)))
            }
            Backend::NachosSw => {
                PolicyMut::NachosSw(nachos_sw.get_or_insert_with(NachosSwPolicy::default))
            }
            Backend::Nachos => {
                PolicyMut::Nachos(nachos_hw.get_or_insert_with(NachosPolicy::default))
            }
            Backend::Ideal => PolicyMut::Ideal(ideal.get_or_insert_with(IdealPolicy::default)),
        };
        (bufs, policy)
    }
}
