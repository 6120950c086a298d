//! The NACHOS-SW policy: MDEs in full, with MAY edges serialized exactly
//! like MUST edges (paper §V) — every dependence is a 1-bit completion
//! token over the operand network, and no comparator hardware exists.

use crate::config::Backend;
use nachos_ir::{EdgeKind, NodeId};

use super::super::core::SchedCore;
use super::super::state::Ev;
use super::{dataflow_admit, DisambiguationPolicy, EdgeGate};

#[derive(Default)]
pub(crate) struct NachosSwPolicy;

impl DisambiguationPolicy for NachosSwPolicy {
    fn backend(&self) -> Backend {
        Backend::NachosSw
    }

    fn edge_gate(&self, kind: EdgeKind) -> EdgeGate {
        match kind {
            EdgeKind::Forward => EdgeGate::Data,
            // MAY is conservatively serialized: an ordering token, same
            // as MUST.
            EdgeKind::Order | EdgeKind::May => EdgeGate::Token,
            EdgeKind::Data => EdgeGate::Data,
        }
    }

    fn prepare_run(&mut self, _core: &SchedCore) {}

    /// Forwarded values ride the operand network as MUST-edge traffic.
    fn on_forward_edge(&mut self, core: &mut SchedCore, at: u64, dst: NodeId) {
        core.counts.must_tokens += 1;
        core.push(at, Ev::Data(dst));
    }

    fn admit_mem(&mut self, core: &mut SchedCore, t: u64, n: NodeId, fired: bool) {
        dataflow_admit(core, t, n, fired);
    }

    /// Both ORDER and (serialized) MAY complete as 1-bit tokens.
    fn on_completion_edge(&mut self, core: &mut SchedCore, at: u64, dst: NodeId, _kind: EdgeKind) {
        core.counts.must_tokens += 1;
        core.push_token(at, dst);
    }
}
