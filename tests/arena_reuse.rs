//! Pooled engine state never leaks between runs.
//!
//! A [`SimArena`] keeps every run-sized buffer the engine uses — the
//! slab-backed event queue, the node table, the run plan's gate census
//! and fan-out tables, and each backend's per-run tables (MAY edges and
//! comparator sites, LSQ ages, oracle edge lists) — and refills them for
//! the next run. Interleaving regions of different sizes and backends
//! through one arena must therefore give results bit-identical to fresh
//! runs, down to the queue's `queue_events` and `heap_max_depth`.

use nachos::{
    compile_for_backend, simulate, simulate_in, Backend, EnergyModel, SimArena, SimConfig,
    SimResult,
};
use nachos_alias::StageConfig;
use nachos_ir::{Binding, Region};
use nachos_workloads::{by_name, generate};

/// Every `SimResult` field except the final memory (compared with its
/// content-based `Eq`; its `Debug` goes through a `HashMap`).
fn fingerprint(sim: &SimResult) -> String {
    format!(
        "{:?}|{}|{}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{}|{}|{}|{:?}",
        sim.backend,
        sim.cycles,
        sim.invocations,
        sim.events,
        sim.stalls,
        sim.energy,
        sim.loads,
        sim.l1,
        sim.llc,
        sim.bloom,
        sim.comparator_sites,
        sim.queue_events,
        sim.heap_max_depth,
        sim.injected,
    )
}

fn compiled(name: &str, backend: Backend, config: &SimConfig) -> (Region, Binding) {
    let w = generate(&by_name(name).expect("Table II workload"));
    let c = compile_for_backend(&w.region, backend, config, StageConfig::full())
        .expect("workload compiles");
    (c.region, w.binding)
}

#[test]
fn interleaved_runs_through_one_arena_match_fresh_runs() {
    let energy = EnergyModel::default();
    let base = SimConfig::default().with_invocations(6);
    let wide = SimConfig {
        comparators_per_site: 2,
        ..base.clone()
    };
    // A (`art`: MAY-heavy, live conflicts), B (`gzip`: small, no MDEs),
    // C (`401.bzip2`: large MAY fan-in), revisited under different
    // backends and comparator widths so every pooled table is refilled
    // from a differently shaped predecessor.
    let schedule = [
        ("art", Backend::Ideal, &base),
        ("gzip", Backend::Nachos, &base),
        ("art", Backend::Ideal, &base),
        ("401.bzip2", Backend::Nachos, &wide),
        ("art", Backend::Nachos, &base),
        ("gzip", Backend::OptLsq, &base),
        ("art", Backend::OptLsq, &base),
        ("401.bzip2", Backend::Ideal, &base),
        ("gzip", Backend::Ideal, &base),
        ("art", Backend::NachosSw, &base),
        ("401.bzip2", Backend::OptLsq, &base),
        ("art", Backend::Nachos, &wide),
    ];
    let mut arena = SimArena::new();
    for (name, backend, config) in schedule {
        let (region, binding) = compiled(name, backend, config);
        let pooled = simulate_in(&mut arena, &region, &binding, backend, config, &energy)
            .expect("pooled run succeeds");
        let fresh = simulate(&region, &binding, backend, config, &energy).expect("fresh run");
        assert_eq!(
            fingerprint(&pooled),
            fingerprint(&fresh),
            "{name} under {backend:?}: arena history changed the result"
        );
        assert!(pooled.mem == fresh.mem, "{name} under {backend:?}: memory");
        assert!(pooled.queue_events > 0);
    }
}
