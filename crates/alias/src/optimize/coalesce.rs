//! Comparator-site coalescing of congruent MAY edges.
//!
//! Two MAY edges that share an endpoint and whose non-shared endpoints
//! carry *syntactically identical* memory references test the same
//! address predicate every invocation: the two pairs conflict for exactly
//! the same iteration vectors. When a guaranteed path additionally orders
//! the removed pair *through* the kept one, one comparator check subsumes
//! the other:
//!
//! * **Shared destination** (rule A): edges `o → y` and `k → y` with
//!   `mem(o) == mem(k)` and a guaranteed path `o ⇝ k`. If the (common)
//!   address conflicts with `y`, the kept check holds `y` until `k`
//!   completes, and `k` completes after `o` — so `y` is ordered after `o`
//!   exactly when it must be.
//! * **Shared source** (rule B): edges `s → y1` and `s → y2` with
//!   `mem(y1) == mem(y2)` and a guaranteed path `y1 ⇝ y2`. If `s`
//!   conflicts with the (common) destination address, the kept check
//!   holds `y1` until `s` completes, and `y2` starts after `y1`.
//!
//! Under NACHOS-SW, where MAY edges serialize as tokens, both arguments
//! strengthen (the kept edge orders unconditionally). An edge recorded as
//! `kept` by one certificate is never itself removed by a later rewrite,
//! so every certificate's kept edge is present in the final plan.

use super::cert::Certificate;
use super::witness;
use crate::edgeset::EdgeSet;
use crate::reach::Reachability;
use crate::stage3::MdePlan;
use nachos_ir::{EdgeKind, MemRef, NodeId, Region};
use std::collections::HashMap;

type MayEdge = (NodeId, NodeId);

/// One congruence id per node: memory operations with equal [`MemRef`]s
/// share an id (interned once per region), other nodes have none.
fn congruence_ids(region: &Region) -> Vec<Option<usize>> {
    let mut interned: HashMap<&MemRef, usize> = HashMap::new();
    region
        .dfg
        .node_ids()
        .map(|n| {
            let m = region.dfg.node(n).kind.mem_ref()?;
            let next = interned.len();
            Some(*interned.entry(m).or_insert(next))
        })
        .collect()
}

/// Partitions `edges` into coalescing classes: edges sharing the endpoint
/// selected by `shared` whose `other` endpoints carry congruent memory
/// references. Groups come in first-seen order of their shared endpoint,
/// classes within a group in first-seen order of their congruence id, and
/// edges in input order — the order the rewrites (and so the
/// certificates) follow. Only classes of two or more edges are returned.
fn classes(
    edges: &[MayEdge],
    cong: &[Option<usize>],
    shared: impl Fn(&MayEdge) -> NodeId,
    other: impl Fn(&MayEdge) -> NodeId,
) -> Vec<Vec<MayEdge>> {
    let mut group_of = vec![usize::MAX; cong.len()];
    let mut groups: Vec<Vec<MayEdge>> = Vec::new();
    for &e in edges {
        let g = &mut group_of[shared(&e).index()];
        if *g == usize::MAX {
            *g = groups.len();
            groups.push(Vec::new());
        }
        groups[*g].push(e);
    }
    let mut class_of = vec![usize::MAX; cong.len()];
    let mut out = Vec::new();
    for group in groups {
        let first = out.len();
        for e in group {
            let Some(id) = cong[other(&e).index()] else {
                continue;
            };
            if class_of[id] == usize::MAX {
                class_of[id] = out.len();
                out.push(Vec::new());
            }
            out[class_of[id]].push(e);
        }
        for class in &out[first..] {
            let id = cong[other(&class[0]).index()].expect("classed edges have an id");
            class_of[id] = usize::MAX;
        }
    }
    out.retain(|class| class.len() >= 2);
    out
}

fn slot(region: &Region, n: NodeId) -> usize {
    region
        .dfg
        .node(n)
        .mem_slot
        .map_or(usize::MAX, nachos_ir::MemSlot::index)
}

/// Coalesces congruent MAY edges (rules A then B), recording one
/// [`Certificate::MayCoalesced`] per deletion. Returns the number of
/// edges removed. Must run after transitive reduction: witness paths are
/// searched over the final guaranteed edge set, which MAY removals never
/// perturb. For the same reason each rule's decisions are independent of
/// its own deletions, so each rule collects them and applies them in one
/// batch; rule B groups the plan rule A left.
pub(super) fn run(region: &mut Region, plan: &mut MdePlan, certs: &mut Vec<Certificate>) -> usize {
    if plan.may.len() < 2 {
        // No class of two edges: nothing to coalesce.
        return 0;
    }
    let closure = Reachability::of_dfg(
        &region.dfg,
        &[EdgeKind::Data, EdgeKind::Order, EdgeKind::Forward],
    );
    let cong = congruence_ids(region);
    let mut kept_edges = EdgeSet::new(&region.dfg);
    let mut doomed: Vec<MayEdge> = Vec::new();
    let mut removed = 0usize;

    // Rule A: shared destination, congruent sources. Keep the youngest
    // source (deepest into the guaranteed chain), coalesce the rest into
    // it.
    for class in classes(&plan.may, &cong, |e| e.1, |e| e.0) {
        let kept = *class
            .iter()
            .max_by_key(|e| slot(region, e.0))
            .expect("class is non-empty");
        for &cand in class.iter().filter(|&&e| e != kept) {
            if !closure.reaches(cand.0, kept.0) {
                continue;
            }
            let path = witness::find_path(&region.dfg, cand.0, kept.0, None)
                .expect("closure reachability implies a concrete path");
            doomed.push(cand);
            kept_edges.insert(kept.0, kept.1, EdgeKind::May);
            certs.push(Certificate::MayCoalesced {
                removed: cand,
                kept,
                witness: path,
            });
        }
    }
    removed += doomed.len();
    super::remove_may_edges(region, plan, &doomed);
    doomed.clear();

    // Rule B: shared source, congruent destinations. Keep the oldest
    // destination (first to execute), coalesce younger congruent ones.
    for class in classes(&plan.may, &cong, |e| e.0, |e| e.1) {
        let kept = *class
            .iter()
            .min_by_key(|e| slot(region, e.1))
            .expect("class is non-empty");
        for &cand in class.iter().filter(|&&e| e != kept) {
            if kept_edges.contains(cand.0, cand.1, EdgeKind::May)
                || !closure.reaches(kept.1, cand.1)
            {
                continue;
            }
            let path = witness::find_path(&region.dfg, kept.1, cand.1, None)
                .expect("closure reachability implies a concrete path");
            doomed.push(cand);
            kept_edges.insert(kept.0, kept.1, EdgeKind::May);
            certs.push(Certificate::MayCoalesced {
                removed: cand,
                kept,
                witness: path,
            });
        }
    }
    removed += doomed.len();
    super::remove_may_edges(region, plan, &doomed);
    removed
}
