//! Machine-checkable certificates for MDE-optimizer rewrites.
//!
//! Every edge the optimizer deletes and every verdict it upgrades carries
//! a [`Certificate`]: the witness path or arithmetic fact that justifies
//! the rewrite. Certificates are *self-contained enough to re-verify
//! independently* — the audit's `CertLint` pass re-derives each one from
//! the region and the final analysis without trusting any optimizer
//! state, mirroring how the rest of `nachos-lint` re-derives the
//! compiler's alias verdicts.

use nachos_ir::{AffineExpr, NodeId};
use std::collections::HashSet;

/// The arithmetic fact that proves a residual MAY pair disjoint in
/// iteration-count space (see [`crate::afftest::iteration_space`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ArithFact {
    /// The delta's value range over the iteration box misses the overlap
    /// window `[-(size_a - 1), size_b - 1]` entirely.
    Range {
        /// Minimum reachable delta value.
        lo: i128,
        /// Maximum reachable delta value.
        hi: i128,
    },
    /// Every reachable delta value is `≡ residue (mod modulus)` and no
    /// such value lies in the overlap window clipped to the value range.
    Congruence {
        /// The GCD of the delta's iteration-count coefficients.
        modulus: u64,
        /// The delta's constant term (the residue class).
        residue: i64,
    },
    /// The exact sumset reachability test proves no reachable delta value
    /// lies in the overlap window.
    Exact,
}

/// One optimizer rewrite with its justification.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Certificate {
    /// The ORDER edge `src → dst` was deleted by transitive reduction:
    /// `witness` is a path `src ⇝ dst` over the surviving
    /// Data ∪ Order ∪ Forward edges that still enforces the ordering.
    OrderRedundant {
        /// Older endpoint of the deleted token edge.
        src: NodeId,
        /// Younger endpoint of the deleted token edge.
        dst: NodeId,
        /// Node sequence `src, …, dst` (every hop a guaranteed edge in
        /// the *final* DFG).
        witness: Vec<NodeId>,
    },
    /// The MAY edge `removed` was coalesced into the congruent MAY edge
    /// `kept`: the two edges share an endpoint, the non-shared endpoints
    /// have syntactically identical memory references (so the two pairs
    /// conflict for exactly the same iteration vectors), and `witness` is
    /// a guaranteed path ordering the removed pair through the kept one —
    /// `removed.src ⇝ kept.src` when the destination is shared, or
    /// `kept.dst ⇝ removed.dst` when the source is shared.
    MayCoalesced {
        /// The deleted MAY edge `(older, younger)`.
        removed: (NodeId, NodeId),
        /// The surviving MAY edge that subsumes it.
        kept: (NodeId, NodeId),
        /// Node sequence over guaranteed edges in the final DFG.
        witness: Vec<NodeId>,
    },
    /// Stage 5 upgraded the residual MAY pair `(older, younger)` to NO:
    /// both accesses target the same base object and their linearized
    /// address difference — reparameterized to iteration-count space —
    /// provably misses the overlap window.
    MayUpgraded {
        /// Older operation of the pair.
        older: NodeId,
        /// Younger operation of the pair.
        younger: NodeId,
        /// The k-space delta `offset(older) - offset(younger)` the fact
        /// speaks about (re-derived and cross-checked by `CertLint`).
        delta: AffineExpr,
        /// The deciding arithmetic fact.
        fact: ArithFact,
    },
}

/// Aggregate rewrite counters, reported per run in sweeps and lint suites.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OptStats {
    /// ORDER/token edges in the plan before optimization.
    pub order_before: usize,
    /// MAY edges in the plan before optimization.
    pub may_before: usize,
    /// ORDER edges deleted by transitive reduction.
    pub order_removed: usize,
    /// MAY edges deleted by comparator-site coalescing.
    pub may_coalesced: usize,
    /// Residual MAY pairs upgraded to NO by stage 5.
    pub may_upgraded: usize,
    /// MAY edges deleted because stage 5 upgraded their pair (a subset of
    /// upgraded pairs carries a planned edge).
    pub may_upgraded_edges: usize,
}

impl OptStats {
    /// Total ordering-mechanism edges deleted (tokens plus comparator
    /// checks; NACHOS-SW serializes MAY edges as tokens, so both count
    /// against the paper's token pressure).
    #[must_use]
    pub fn edges_removed(&self) -> usize {
        self.order_removed + self.may_coalesced + self.may_upgraded_edges
    }

    /// Comparator-site MAY edges coalesced away.
    #[must_use]
    pub fn comparators_coalesced(&self) -> usize {
        self.may_coalesced
    }
}

/// The optimizer's product: every rewrite's certificate plus counters.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct OptOutcome {
    /// One certificate per rewrite, in rewrite order (stage 5 upgrades,
    /// then transitive reduction, then coalescing).
    pub certs: Vec<Certificate>,
    /// Aggregate counters.
    pub stats: OptStats,
}

impl OptOutcome {
    /// The deleted edges as `(src, dst, kind)` triples — the shape
    /// [`nachos_ir::to_dot_with_removed`] renders as grey ghost edges.
    #[must_use]
    pub fn removed_edges(&self) -> Vec<(NodeId, NodeId, nachos_ir::EdgeKind)> {
        use nachos_ir::EdgeKind;
        self.certs
            .iter()
            .map(|c| match c {
                Certificate::OrderRedundant { src, dst, .. } => (*src, *dst, EdgeKind::Order),
                Certificate::MayCoalesced { removed, .. } => (removed.0, removed.1, EdgeKind::May),
                // Upgrades without a planned edge delete nothing; the
                // optimizer only records edge-carrying upgrades here via
                // the matching plan mutation, which `CertLint` checks —
                // the dot rendering treats every upgraded pair's edge as
                // removed (a no-op when none existed).
                Certificate::MayUpgraded { older, younger, .. } => {
                    (*older, *younger, EdgeKind::May)
                }
            })
            .collect()
    }

    /// The MAY pairs some certificate coalesced away — the audit's race
    /// lint exempts them from the ordering-chain requirement (the kept
    /// congruent edge orders them; `CertLint` verifies that claim
    /// independently).
    #[must_use]
    pub fn coalesced_pairs(&self) -> HashSet<(NodeId, NodeId)> {
        self.certs
            .iter()
            .filter_map(|c| match c {
                Certificate::MayCoalesced { removed, .. } => Some(*removed),
                _ => None,
            })
            .collect()
    }
}
