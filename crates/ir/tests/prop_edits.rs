//! Batch edge edits against their one-edge-at-a-time definitions: on
//! random DAGs and random batches, [`Dfg::add_edges`] accepts exactly when
//! sequential [`Dfg::add_edge`] calls do (with the same error and the same
//! edge and adjacency order), and [`Dfg::retain_edges`] equals repeated
//! [`Dfg::remove_edge_between`].

use nachos_ir::{AffineExpr, BaseId, Dfg, Edge, EdgeKind, IntOp, MemRef, NodeId, OpKind};
use proptest::prelude::*;

const KINDS: [EdgeKind; 4] = [
    EdgeKind::Data,
    EdgeKind::Order,
    EdgeKind::Forward,
    EdgeKind::May,
];

/// A random DAG: node `i` is a load, store or add by `shapes[i] % 3`, and
/// each `(a, b)` becomes a data edge from the lower to the higher index.
fn random_dag(shapes: &[u8], data: &[(usize, usize)]) -> Dfg {
    let mut g = Dfg::new();
    let m = MemRef::affine(BaseId::new(0), AffineExpr::zero());
    for &s in shapes {
        let kind = match s % 3 {
            0 => OpKind::Load(m.clone()),
            1 => OpKind::Store(m.clone()),
            _ => OpKind::Int(IntOp::Add),
        };
        g.add_node(kind).unwrap();
    }
    let n = shapes.len();
    for &(a, b) in data {
        let (u, v) = (a % n, b % n);
        if u != v {
            let _ = g.add_edge(NodeId::new(u.min(v)), NodeId::new(u.max(v)), EdgeKind::Data);
        }
    }
    g
}

/// Maps raw draws `(a, b, kind, flavor)` to a batch. One draw in 32
/// repeats an earlier batch edge or an existing edge (a duplicate). One
/// in 16 is left raw: endpoints drawn among all nodes, any kind. The
/// others draw MDE endpoints among distinct memory operations and turn a
/// FORWARD edge that would not run store→load into an ORDER edge. Ten
/// draws in eleven run from the lower to the higher index, so batches are
/// often accepted; the rest keep the drawn direction, which yields
/// cycle-closing edges and MDEs against program order.
fn random_batch(g: &Dfg, raw: &[(usize, usize, usize, u8)]) -> Vec<(NodeId, NodeId, EdgeKind)> {
    let n = g.num_nodes();
    let mems = g.mem_ops();
    let existing: Vec<Edge> = g.edges().copied().collect();
    let mut batch: Vec<(NodeId, NodeId, EdgeKind)> = Vec::new();
    for &(a, b, k, flavor) in raw {
        if flavor % 32 == 0 && !(batch.is_empty() && existing.is_empty()) {
            let pick = a % (batch.len() + existing.len());
            batch.push(match batch.get(pick) {
                Some(&e) => e,
                None => {
                    let e = existing[pick - batch.len()];
                    (e.src, e.dst, e.kind)
                }
            });
            continue;
        }
        let mut kind = KINDS[k % KINDS.len()];
        let tidy = flavor % 16 != 1;
        let (mut u, mut v) = if kind.is_mde() && mems.len() >= 2 && tidy {
            let (i, j) = (a % mems.len(), b % mems.len());
            let j = if i == j { (j + 1) % mems.len() } else { j };
            (mems[i], mems[j])
        } else {
            (NodeId::new(a % n), NodeId::new(b % n))
        };
        if flavor % 11 != 0 && u > v {
            std::mem::swap(&mut u, &mut v);
        }
        if kind == EdgeKind::Forward
            && tidy
            && !(g.node(u).kind.is_store() && g.node(v).kind.is_load())
        {
            kind = EdgeKind::Order;
        }
        batch.push((u, v, kind));
    }
    batch
}

fn adjacency(g: &Dfg) -> Vec<(Vec<Edge>, Vec<Edge>)> {
    g.node_ids()
        .map(|n| {
            (
                g.out_edges(n).copied().collect(),
                g.in_edges(n).copied().collect(),
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn add_edges_matches_sequential_add_edge(
        shapes in proptest::collection::vec(0u8..3, 4..40),
        data in proptest::collection::vec((0usize..64, 0usize..64), 0..40),
        raw in proptest::collection::vec((0usize..64, 0usize..64, 0usize..4, any::<u8>()), 0..12),
    ) {
        let g = random_dag(&shapes, &data);
        let batch = random_batch(&g, &raw);
        let mut seq = g.clone();
        let seq_result = batch
            .iter()
            .try_for_each(|&(s, d, k)| seq.add_edge(s, d, k).map(|_| ()));
        let mut bat = g.clone();
        let bat_result = bat.add_edges(&batch);
        prop_assert_eq!(&bat_result, &seq_result, "batch {:?}", batch);
        if bat_result.is_ok() {
            prop_assert_eq!(
                bat.edges().copied().collect::<Vec<_>>(),
                seq.edges().copied().collect::<Vec<_>>()
            );
            prop_assert_eq!(adjacency(&bat), adjacency(&seq));
            prop_assert_eq!(&bat, &seq);
        } else {
            prop_assert_eq!(&bat, &g, "a rejected batch must leave the graph untouched");
        }
    }

    #[test]
    fn retain_edges_matches_repeated_removal(
        shapes in proptest::collection::vec(0u8..3, 2..40),
        data in proptest::collection::vec((0usize..64, 0usize..64), 0..40),
        raw in proptest::collection::vec((0usize..64, 0usize..64, 0usize..4, any::<u8>()), 0..24),
        drop in proptest::collection::vec(any::<bool>(), 64),
    ) {
        let mut g = random_dag(&shapes, &data);
        // Grow some MDEs too (one at a time, keeping whatever is accepted).
        for (s, d, k) in random_batch(&g.clone(), &raw) {
            let _ = g.add_edge(s, d, k);
        }
        let doomed: Vec<Edge> = g
            .edges()
            .zip(drop.iter().cycle())
            .filter(|&(_, &d)| d)
            .map(|(e, _)| *e)
            .collect();
        let mut seq = g.clone();
        for e in &doomed {
            prop_assert!(seq.remove_edge_between(e.src, e.dst, e.kind).is_some());
        }
        let removed = g.retain_edges(|e| !doomed.contains(e));
        prop_assert_eq!(removed, doomed.len());
        prop_assert_eq!(adjacency(&g), adjacency(&seq));
        prop_assert_eq!(&g, &seq);
    }
}
