//! End-to-end integration: datasets → orderings → algorithms, checking
//! that every ordering preserves every algorithm's (relabeling-invariant)
//! results — the property that makes reordering a *transparent*
//! optimisation, which is the paper's whole premise.

use gorder::prelude::*;

/// Every ordering × every algorithm on a small dataset: invariant
/// checksums must agree across all orderings (with the source node mapped
/// through each permutation).
#[test]
fn all_orderings_preserve_algorithm_results() {
    let g = gorder::graph::datasets::epinion_like().build(0.1);
    let logical_source = g.max_degree_node().unwrap();
    let base = KernelCtx {
        pr_iterations: 10,
        diameter_samples: 3,
        ..Default::default()
    };
    // DS greedy, Diam and BC (random sources in label space) and LP
    // (labels are ids) are not relabeling-invariant; everything else is.
    let invariant = ["NQ", "BFS", "SCC", "SP", "PR", "Kcore", "WCC", "Tri"];
    let mut reference: Vec<Option<u64>> = vec![None; invariant.len()];
    for ordering in gorder::orders::all(7) {
        let perm = ordering.compute(&g);
        let rg = g.relabel(&perm);
        let ctx = KernelCtx {
            source: Some(perm.apply(logical_source)),
            ..base.clone()
        };
        for (i, name) in invariant.iter().enumerate() {
            let checksum = run_by_name(name, &rg, &ctx).unwrap().checksum;
            match reference[i] {
                None => reference[i] = Some(checksum),
                Some(expected) => assert_eq!(
                    checksum,
                    expected,
                    "{name} differs under {}",
                    ordering.name()
                ),
            }
        }
    }
}

/// DFS runs under every ordering without panicking and visits everything.
#[test]
fn dfs_runs_under_every_ordering() {
    let g = gorder::graph::datasets::epinion_like().build(0.05);
    for ordering in gorder::orders::all(3) {
        let rg = g.relabel(&ordering.compute(&g));
        let r = gorder::engine::kernels::dfs::dfs(&rg, 0);
        assert_eq!(r.preorder.len() as u32, g.n(), "{}", ordering.name());
    }
}

/// The full quickstart workflow: order, relabel, verify structure and
/// locality objective improvement on a shuffled structured graph.
#[test]
fn quickstart_workflow() {
    use gorder_core::score::f_score_of;
    let base = gorder::graph::datasets::wiki_like().build(0.02);
    // destroy the built-in locality first so the comparison is fair
    let shuffle = Permutation::random(base.n(), &mut seeded(11));
    let g = base.relabel(&shuffle);

    let perm = GorderBuilder::new().window(5).build().compute(&g);
    let rg = g.relabel(&perm);
    assert_eq!(rg.n(), g.n());
    assert_eq!(rg.m(), g.m());
    let f_before = f_score_of(&g, &Permutation::identity(g.n()), 5);
    let f_after = f_score_of(&g, &perm, 5);
    assert!(
        f_after > f_before,
        "gorder must beat the shuffled arrangement: {f_after} vs {f_before}"
    );
}

/// Degrees are preserved (as multisets / per logical node) by every
/// ordering's relabeling.
#[test]
fn degree_sequences_preserved() {
    let g = gorder::graph::datasets::livejournal_like().build(0.02);
    for ordering in gorder::orders::all(1) {
        let perm = ordering.compute(&g);
        let rg = g.relabel(&perm);
        for u in g.nodes() {
            assert_eq!(
                g.out_degree(u),
                rg.out_degree(perm.apply(u)),
                "{}: out-degree of {u}",
                ordering.name()
            );
            assert_eq!(
                g.in_degree(u),
                rg.in_degree(perm.apply(u)),
                "{}: in-degree of {u}",
                ordering.name()
            );
        }
    }
}

fn seeded(s: u64) -> rand::rngs::StdRng {
    use rand::SeedableRng;
    rand::rngs::StdRng::seed_from_u64(s)
}
