//! Induced subgraphs and node-set extraction.
//!
//! Carving a graph down to a node subset with dense re-numbering — used
//! by the recursive-bisection ordering, and by anyone who wants to run
//! the benchmark suite on (say) one community of a larger network.

use crate::csr::{Graph, GraphBuilder};
use crate::NodeId;

/// The mapping produced by an induced-subgraph extraction.
#[derive(Debug, Clone)]
pub struct SubgraphMap {
    /// The extracted graph, nodes renumbered `0..keep.len()`.
    pub graph: Graph,
    /// `original[i]` = id in the parent graph of subgraph node `i`.
    pub original: Vec<NodeId>,
}

impl SubgraphMap {
    /// Parent-graph id of subgraph node `u`.
    pub fn to_original(&self, u: NodeId) -> NodeId {
        self.original[u as usize]
    }
}

/// Extracts the subgraph induced by `keep` (order defines the new ids;
/// duplicates are rejected).
///
/// # Panics
/// Panics if `keep` contains an out-of-range or duplicate id.
pub fn induced(g: &Graph, keep: &[NodeId]) -> SubgraphMap {
    let mut new_id = vec![NodeId::MAX; g.n() as usize];
    for (i, &u) in keep.iter().enumerate() {
        assert!(u < g.n(), "node {u} out of range");
        assert_eq!(
            new_id[u as usize],
            NodeId::MAX,
            "duplicate node {u} in keep set"
        );
        new_id[u as usize] = i as NodeId;
    }
    let mut b = GraphBuilder::new(keep.len() as u32);
    for (i, &u) in keep.iter().enumerate() {
        for &v in g.out_neighbors(u) {
            let nv = new_id[v as usize];
            if nv != NodeId::MAX {
                b.add_edge(i as NodeId, nv);
            }
        }
    }
    SubgraphMap {
        graph: b.build(),
        original: keep.to_vec(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn g() -> Graph {
        Graph::from_edges(6, &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (1, 4)])
    }

    #[test]
    fn keeps_internal_edges_only() {
        let sub = induced(&g(), &[0, 1, 2]);
        assert_eq!(sub.graph.n(), 3);
        assert_eq!(sub.graph.m(), 3, "the (1,4) edge crosses out and must drop");
        assert!(sub.graph.has_edge(0, 1));
        assert!(sub.graph.has_edge(2, 0));
    }

    #[test]
    fn keep_order_defines_ids() {
        let sub = induced(&g(), &[4, 1, 3]);
        // 3 → 4 becomes 2 → 0; 1 → 4 becomes 1 → 0
        assert!(sub.graph.has_edge(2, 0));
        assert!(sub.graph.has_edge(1, 0));
        assert_eq!(sub.to_original(0), 4);
        assert_eq!(sub.to_original(2), 3);
    }

    #[test]
    fn empty_keep() {
        let sub = induced(&g(), &[]);
        assert_eq!(sub.graph.n(), 0);
        assert_eq!(sub.graph.m(), 0);
    }

    #[test]
    fn whole_graph_roundtrip() {
        let original = g();
        let keep: Vec<NodeId> = original.nodes().collect();
        let sub = induced(&original, &keep);
        assert_eq!(sub.graph, original);
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicates_rejected() {
        induced(&g(), &[1, 1]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_rejected() {
        induced(&g(), &[9]);
    }
}
