//! Exact oracle for the Gorder build: the coalesced hot path in
//! `gorder.rs` (one net heap update per candidate per step, exit replay,
//! out-rows that shed placed ids) must place every node where the
//! per-unit greedy does and report the same five `GorderStats` counters.
//!
//! The reference issues every score change as its own ±1 unit-heap
//! operation, in the order the paper's loop enumerates them, and walks
//! the graph's own rows on a node's entry and again on its exit. Beside
//! the heap it tallies each step's net change per unplaced candidate,
//! which is what the coalesced counters classify by sign. Raise the case
//! count with `PROPTEST_CASES`.

use gorder_core::budget::Budget;
use gorder_core::{Gorder, GorderBuilder, GorderStats, UnitHeap};
use gorder_graph::gen::{copying_model, preferential_attachment, PrefAttachConfig};
use gorder_graph::{Graph, GraphBuilder, NodeId};
use proptest::collection;
use proptest::prelude::*;
use std::collections::HashMap;

/// What a per-unit run produced.
struct Reference {
    placement: Vec<NodeId>,
    stats: GorderStats,
    /// Unit heap operations issued, placed candidates included.
    unit_ops: u64,
}

/// Issues, one unit at a time, every score change `v` entering
/// (`sign = 1`) or leaving (`sign = -1`) the window causes, and adds it
/// to `net` for each candidate still in the heap.
fn apply_delta(
    g: &Graph,
    v: NodeId,
    sign: i64,
    hub_threshold: u32,
    heap: &mut UnitHeap,
    net: &mut HashMap<NodeId, i64>,
    out: &mut Reference,
) {
    let mut bump = |heap: &mut UnitHeap, u: NodeId| {
        if heap.contains(u) {
            *net.entry(u).or_default() += sign;
        }
        if sign > 0 {
            heap.increment(u);
        } else {
            heap.decrement(u);
        }
        out.unit_ops += 1;
    };
    for &u in g.out_neighbors(v) {
        bump(heap, u);
    }
    for &x in g.in_neighbors(v) {
        bump(heap, x);
        if g.out_degree(x) > hub_threshold {
            out.stats.hub_skips += 1;
            continue;
        }
        for &u in g.out_neighbors(x) {
            if u != v {
                bump(heap, u);
            }
        }
    }
}

/// Classifies a step's net changes as the coalesced build counts them.
fn close_step(net: &mut HashMap<NodeId, i64>, stats: &mut GorderStats) {
    for (_, d) in net.drain() {
        stats.increments += u64::from(d > 0);
        stats.decrements += u64::from(d < 0);
        stats.refreshes += u64::from(d == 0);
    }
}

/// Per-unit-update Gorder: the pre-optimisation algorithm.
fn reference(gorder: &Gorder, g: &Graph) -> Reference {
    let n = g.n();
    let mut out = Reference {
        placement: Vec::with_capacity(n as usize),
        stats: GorderStats::default(),
        unit_ops: 0,
    };
    if n == 0 {
        return out;
    }
    let w = gorder.window_size() as usize;
    let hub = gorder.hub_threshold().unwrap_or(u32::MAX);
    let mut heap = UnitHeap::new(n);
    let mut net = HashMap::new();
    let seed = (0..n)
        .max_by_key(|&u| (g.in_degree(u), std::cmp::Reverse(u)))
        .expect("non-empty graph");
    heap.remove(seed);
    out.placement.push(seed);
    apply_delta(g, seed, 1, hub, &mut heap, &mut net, &mut out);
    close_step(&mut net, &mut out.stats);
    while let Some(v) = heap.pop_max() {
        out.stats.pops += 1;
        out.placement.push(v);
        apply_delta(g, v, 1, hub, &mut heap, &mut net, &mut out);
        if out.placement.len() > w {
            let expiring = out.placement[out.placement.len() - 1 - w];
            apply_delta(g, expiring, -1, hub, &mut heap, &mut net, &mut out);
        }
        close_step(&mut net, &mut out.stats);
    }
    out
}

/// Runs both builds and checks placement and counters; returns the
/// reference's unit operation count.
fn check(g: &Graph, window: u32, hub: Option<u32>) -> Result<(u64, u64), TestCaseError> {
    let gorder = GorderBuilder::new()
        .window(window)
        .hub_threshold(hub)
        .build();
    let expected = reference(&gorder, g);
    let (outcome, stats) = gorder.compute_budgeted(g, &Budget::unlimited());
    let perm = outcome.value().expect("an unlimited build completes");
    prop_assert_eq!(
        perm.placement(),
        expected.placement,
        "w={} hub={:?}: placement diverged from the per-unit reference",
        window,
        hub
    );
    prop_assert_eq!(
        stats,
        expected.stats,
        "w={} hub={:?}: counters diverged from the per-unit reference",
        window,
        hub
    );
    Ok((stats.heap_updates(), expected.unit_ops))
}

/// A random graph on 1..=48 nodes with up to 3 edges per node, so some
/// nodes are isolated and most rows are short; self-loops, if kept, put
/// a node among its own in- and out-neighbours.
fn graphs() -> impl Strategy<Value = Graph> {
    (1u32..49, 0u8..2).prop_flat_map(|(n, loops)| {
        collection::vec((0..n, 0..n), 0..3 * n as usize + 1).prop_map(move |edges| {
            let mut b = GraphBuilder::new(n).keep_self_loops(loops == 1);
            for (u, v) in edges {
                b.add_edge(u, v);
            }
            b.build()
        })
    })
}

proptest! {
    #[test]
    fn coalesced_build_matches_the_per_unit_greedy(
        g in graphs(),
        window in 1u32..65,
        hub in 0usize..3,
    ) {
        check(&g, window, [None, Some(2), Some(8)][hub])?;
    }
}

fn social(n: u32) -> Graph {
    preferential_attachment(PrefAttachConfig {
        n,
        out_degree: 6,
        reciprocity: 0.3,
        uniform_mix: 0.1,
        closure_prob: 0.3,
        recency_bias: 0.3,
        seed: 13,
    })
}

#[test]
fn coalesced_build_matches_per_unit_reference_on_graph_families() {
    // Larger, skewed graphs than the proptest draws, where coalescing
    // must also cut the heap operations.
    let graphs = [
        ("social", social(400)),
        ("copying", copying_model(350, 6, 0.7, 21)),
        (
            "sparse",
            Graph::from_edges(8, &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]),
        ),
    ];
    for (tag, g) in &graphs {
        for w in [1u32, 2, 5, 64] {
            for hub in [None, Some(2), Some(8)] {
                let (updates, unit_ops) = check(g, w, hub).unwrap_or_else(|e| panic!("{tag}: {e}"));
                assert!(
                    updates < unit_ops,
                    "{tag} w={w} hub={hub:?}: coalescing must cut heap ops \
                     ({updates} vs {unit_ops} unit updates)"
                );
            }
        }
    }
}
