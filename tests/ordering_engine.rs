//! Differential tests for the unified ordering engine: every ordering in
//! the extended registry, run through [`run_by_name_plan`], must produce
//! a permutation identical to the pre-refactor direct `compute()` call —
//! under the serial plan **and** under `threads = 4` (plans never change
//! results) — with populated [`OrderStats`].

use gorder_core::budget::Budget;
use gorder_graph::gen::{erdos_renyi, web_graph, WebGraphConfig};
use gorder_graph::Graph;
use gorder_orders::{extended_names, extensions, run_by_name_plan, ExecPlan, OrderingRun};

const SEED: u64 = 13;

fn graphs() -> Vec<(&'static str, Graph)> {
    vec![
        (
            "web",
            web_graph(WebGraphConfig {
                n: 400,
                mean_host_size: 12,
                seed: 3,
                ..Default::default()
            }),
        ),
        ("er", erdos_renyi(300, 1200, 5)),
        ("tiny", Graph::from_edges(5, &[(0, 1), (1, 2), (3, 4)])),
        ("empty", Graph::empty(0)),
    ]
}

fn run(name: &str, g: &Graph, plan: ExecPlan) -> OrderingRun {
    run_by_name_plan(name, SEED, g, plan, &Budget::unlimited())
        .unwrap_or_else(|| panic!("{name} missing from the registry"))
        .value()
        .unwrap_or_else(|| panic!("{name} did not complete under an unlimited budget"))
}

#[test]
fn runner_matches_direct_compute_for_every_ordering() {
    for (tag, g) in graphs() {
        for o in extensions::extended(SEED) {
            let direct = o.compute(&g);
            for threads in [1u32, 4] {
                let got = run(o.name(), &g, ExecPlan::with_threads(threads));
                assert_eq!(
                    got.perm.as_slice(),
                    direct.as_slice(),
                    "{} on {tag} diverged from direct compute at threads = {threads}",
                    o.name()
                );
            }
        }
    }
}

#[test]
fn runner_returns_populated_stats() {
    let (_, g) = graphs().remove(0);
    for name in extended_names() {
        for threads in [1u32, 4] {
            let got = run(name, &g, ExecPlan::with_threads(threads));
            let s = got.stats;
            assert_eq!(
                s.nodes_placed,
                u64::from(g.n()),
                "{name} placed the wrong node count"
            );
            assert!(
                s.compute_secs >= 0.0 && s.compute_secs.is_finite(),
                "{name} timing is broken"
            );
            assert!(!s.degraded, "{name} degraded under an unlimited budget");
            assert!(!s.cache_hit, "nothing here touches a cache");
        }
    }
    // The heap counters are a Gorder-family signal: populated there,
    // zero for orderings that never touch the unit heap.
    let gorder = run("Gorder", &g, ExecPlan::Serial).stats;
    assert!(gorder.heap_pops > 0 && gorder.heap_increments > 0);
    let rcm = run("RCM", &g, ExecPlan::Serial).stats;
    assert_eq!(rcm.heap_pops, 0);
}

#[test]
fn unknown_names_resolve_to_none() {
    let g = Graph::from_edges(3, &[(0, 1)]);
    assert!(run_by_name_plan("Metis", SEED, &g, ExecPlan::Serial, &Budget::unlimited()).is_none());
}
