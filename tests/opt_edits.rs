//! Batch MDE edge edits against their one-edge-at-a-time definitions on
//! the paper's 135 regions (paths 0–4 of every Table II row), under the
//! full and the baseline compiler with the optimizer on.
//!
//! The compiler inserts a plan with one `Dfg::add_edges` batch, and the
//! optimizer's stage 5 and coalescing delete their MAY edges with one
//! `Dfg::retain_edges` pass each. Here the same compiled DFG is rebuilt
//! with public `add_edge` calls, one edge at a time, and every
//! certificate's deletion is replayed with `remove_edge_between` in
//! certificate order. Both must reproduce the batch result exactly: the
//! same edge table order and the same adjacency lists.

use nachos_alias::{compile, optimize, wire_local_deps, Certificate, MdePlan, StageConfig};
use nachos_ir::{Dfg, Edge, EdgeKind, Region};
use nachos_workloads::{all, generate_path};

/// Adds a plan's edges one `add_edge` call at a time, in the order
/// `MdePlan::apply` batches them.
fn add_one_by_one(dfg: &mut Dfg, plan: &MdePlan) {
    for (edges, kind) in [
        (&plan.forward, EdgeKind::Forward),
        (&plan.order, EdgeKind::Order),
        (&plan.may, EdgeKind::May),
    ] {
        for &(s, d) in edges {
            dfg.add_edge(s, d, kind)
                .unwrap_or_else(|e| panic!("sequential insertion rejected {s}->{d}: {e}"));
        }
    }
}

/// Asserts equal edge tables and adjacency lists, with a readable message.
fn assert_same_graph(got: &Dfg, want: &Dfg, what: &str) {
    let edges = |g: &Dfg| g.edges().copied().collect::<Vec<Edge>>();
    assert_eq!(edges(got), edges(want), "{what}: edge order");
    for n in want.node_ids() {
        assert!(
            got.out_edges(n).eq(want.out_edges(n)) && got.in_edges(n).eq(want.in_edges(n)),
            "{what}: adjacency of {n}"
        );
    }
    assert_eq!(got, want, "{what}");
}

fn check(name: &str, region: &Region, config: StageConfig) {
    let mut batch = region.clone();
    let mut analysis = compile(&mut batch, config);

    // The compiled DFG, one edge at a time: the MDE plan, then the
    // scratchpad dependences `compile` wires after it.
    let mut seq = region.clone();
    seq.dfg.clear_mdes();
    add_one_by_one(&mut seq.dfg, &analysis.plan);
    let local = wire_local_deps(&mut seq.clone());
    add_one_by_one(&mut seq.dfg, &local);
    assert_same_graph(&seq.dfg, &batch.dfg, &format!("{name}: compiled"));

    optimize(&mut batch, &mut analysis);
    let opt = analysis.opt.as_ref().expect("optimizer ran");
    let mut replayed = 0;
    for cert in &opt.certs {
        let (s, d, kind, must_exist) = match cert {
            Certificate::OrderRedundant { src, dst, .. } => (*src, *dst, EdgeKind::Order, true),
            Certificate::MayCoalesced { removed, .. } => {
                (removed.0, removed.1, EdgeKind::May, true)
            }
            // An upgraded pair deletes its MAY edge only when one was
            // planned.
            Certificate::MayUpgraded { older, younger, .. } => {
                (*older, *younger, EdgeKind::May, false)
            }
        };
        let gone = seq.dfg.remove_edge_between(s, d, kind).is_some();
        assert!(
            gone || !must_exist,
            "{name}: certified {kind:?} edge {s}->{d} missing"
        );
        replayed += usize::from(gone);
    }
    assert_eq!(replayed, opt.stats.edges_removed(), "{name}: ledger");
    assert_same_graph(&seq.dfg, &batch.dfg, &format!("{name}: optimized"));
}

#[test]
fn batch_edits_equal_one_edge_at_a_time_on_all_135_regions() {
    let mut regions = 0;
    for spec in all() {
        for path in 0..5 {
            let w = generate_path(&spec, path);
            for (cname, config) in [
                ("full", StageConfig::full()),
                ("baseline", StageConfig::baseline()),
            ] {
                check(&format!("{}/p{path}/{cname}", spec.name), &w.region, config);
            }
            regions += 1;
        }
    }
    assert_eq!(regions, 135);
}
