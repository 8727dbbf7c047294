//! Undirected (symmetrised) view helpers.
//!
//! RCM, SlashBurn and LDG are defined on undirected graphs; on the paper's
//! directed datasets they operate on the symmetrised view. These helpers
//! expose that view without materialising a second graph: a node's
//! undirected neighbourhood is the chain of its out- and in-lists (an edge
//! present in both directions therefore appears twice — the *multigraph*
//! view, consistent with the Kcore kernel's degree convention in
//! `gorder-engine`).

use gorder_graph::{Graph, NodeId};

/// Iterates the symmetrised neighbourhood of `u` (out then in; reciprocal
/// edges yield their partner twice).
pub fn neighbors(g: &Graph, u: NodeId) -> impl Iterator<Item = NodeId> + '_ {
    g.out_neighbors(u)
        .iter()
        .copied()
        .chain(g.in_neighbors(u).iter().copied())
}

/// Multigraph undirected degree: `out_degree + in_degree`.
pub fn degree(g: &Graph, u: NodeId) -> u32 {
    g.degree(u)
}

/// Distinct-neighbour count (simple-graph degree): size of the merged,
/// deduplicated out/in lists. O(deg).
pub fn simple_degree(g: &Graph, u: NodeId) -> u32 {
    let (a, b) = (g.out_neighbors(u), g.in_neighbors(u));
    let (mut i, mut j, mut count) = (0, 0, 0u32);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
            }
        }
        count += 1;
    }
    count + (a.len() - i) as u32 + (b.len() - j) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn neighbors_chains_both_directions() {
        let g = Graph::from_edges(3, &[(0, 1), (2, 0)]);
        let ns: Vec<NodeId> = neighbors(&g, 0).collect();
        assert_eq!(ns, vec![1, 2]);
    }

    #[test]
    fn reciprocal_edge_appears_twice() {
        let g = Graph::from_edges(2, &[(0, 1), (1, 0)]);
        assert_eq!(neighbors(&g, 0).count(), 2);
        assert_eq!(degree(&g, 0), 2);
        assert_eq!(simple_degree(&g, 0), 1);
    }

    #[test]
    fn simple_degree_merges() {
        // out(0) = {1, 2}, in(0) = {2, 3} → distinct {1, 2, 3}
        let g = Graph::from_edges(4, &[(0, 1), (0, 2), (2, 0), (3, 0)]);
        assert_eq!(simple_degree(&g, 0), 3);
        assert_eq!(degree(&g, 0), 4);
    }

    #[test]
    fn isolated() {
        let g = Graph::empty(2);
        assert_eq!(simple_degree(&g, 0), 0);
        assert_eq!(neighbors(&g, 0).count(), 0);
    }
}
