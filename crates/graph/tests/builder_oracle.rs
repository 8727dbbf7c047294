//! Oracle for `GraphBuilder::build`: the counting-sort build must give
//! exactly the CSR that the textbook construction gives — filter
//! self-loops, sort all pairs lexicographically, dedup, then transpose by
//! sorting the reversed pairs. Edge lists are unsorted and full of
//! duplicates and self-loops; `n` starts at 0 and many rows are empty.
//!
//! The second property is the identity the dataset recipes rely on when
//! they rename raw edges instead of relabelling a built graph:
//! `build(map(E, π)) == relabel(build(E), π)`. Raise the case count with
//! `PROPTEST_CASES`.

use gorder_graph::{Graph, GraphBuilder, NodeId, Permutation};
use proptest::collection;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

type Edges = Vec<(NodeId, NodeId)>;

/// One direction of a CSR: offsets and targets.
type Csr = (Vec<u64>, Vec<NodeId>);

/// The CSR of sorted, deduplicated pairs by source.
fn csr_of(n: u32, pairs: &[(NodeId, NodeId)]) -> Csr {
    let mut offsets = vec![0u64; n as usize + 1];
    for &(u, _) in pairs {
        offsets[u as usize + 1] += 1;
    }
    for i in 0..n as usize {
        offsets[i + 1] += offsets[i];
    }
    (offsets, pairs.iter().map(|&(_, v)| v).collect())
}

/// Sort + dedup + self-loop filter + transpose, the slow obvious way.
fn naive(n: u32, edges: &[(NodeId, NodeId)], keep_self_loops: bool) -> (Csr, Csr) {
    let mut out: Edges = edges
        .iter()
        .copied()
        .filter(|&(u, v)| keep_self_loops || u != v)
        .collect();
    out.sort();
    out.dedup();
    let mut rev: Edges = out.iter().map(|&(u, v)| (v, u)).collect();
    rev.sort();
    (csr_of(n, &out), csr_of(n, &rev))
}

fn build(n: u32, edges: &[(NodeId, NodeId)], keep_self_loops: bool) -> Graph {
    let mut b = GraphBuilder::new(n).keep_self_loops(keep_self_loops);
    for &(u, v) in edges {
        b.add_edge(u, v);
    }
    b.build()
}

/// `n` in 0..40 and up to `4n` pairs, so small graphs repeat pairs often
/// and large ones leave rows empty. Every third list routes most edges
/// through node 0, giving one long row to sort.
fn edge_lists() -> impl Strategy<Value = (u32, Edges)> {
    (0u32..40, 0u8..3).prop_flat_map(|(n, shape)| {
        let hi = n.max(1);
        collection::vec((0..hi, 0..hi, 0u8..4), 0..4 * n as usize + 1).prop_map(move |raw| {
            let edges = raw
                .into_iter()
                .map(|(u, v, r)| if shape == 0 && r > 0 { (0, v) } else { (u, v) })
                .collect();
            (n, edges)
        })
    })
}

proptest! {
    #[test]
    fn build_matches_sort_dedup_transpose(
        (n, edges) in edge_lists(),
        keep in 0u8..2,
    ) {
        let keep = keep == 1;
        let (out, inn) = naive(n, &edges, keep);
        let g = build(n, &edges, keep);
        prop_assert_eq!(g.n(), n);
        prop_assert_eq!((g.out_csr().0, g.out_csr().1), (&out.0[..], &out.1[..]));
        prop_assert_eq!((g.in_csr().0, g.in_csr().1), (&inn.0[..], &inn.1[..]));
        if !keep {
            // The whole edge list handed over at once is the same build.
            prop_assert_eq!(Graph::from_edges(n, &edges), g);
        }
    }

    #[test]
    fn renaming_raw_edges_equals_relabelling_the_build(
        (n, edges) in edge_lists(),
        keep in 0u8..2,
        seed in 0u64..1_000_000,
    ) {
        let keep = keep == 1;
        let perm = Permutation::random(n, &mut StdRng::seed_from_u64(seed));
        let mapped: Edges = edges
            .iter()
            .map(|&(u, v)| (perm.apply(u), perm.apply(v)))
            .collect();
        prop_assert_eq!(
            build(n, &mapped, keep),
            build(n, &edges, keep).relabel(&perm)
        );
    }
}
