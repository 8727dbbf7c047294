//! Compressed Sparse Row storage for directed graphs.
//!
//! A CSR graph stores all neighbour lists in one shared `targets` array of
//! length `m`, with an `offsets` array of length `n + 1` such that the
//! out-neighbours of node `u` are `targets[offsets[u] .. offsets[u + 1]]`.
//! Compared to a per-node `Vec<Vec<NodeId>>` adjacency list this removes a
//! pointer chase per node and keeps consecutive nodes' neighbour lists
//! adjacent in memory — which is precisely the property graph reordering
//! exploits (Figure 2 of the replication).
//!
//! Every graph starts as raw `(u, v)` pairs in a [`GraphBuilder`], whose
//! build is a counting sort by source plus one sort per row:
//! O(n + m + Σ d·log d) time. The pairs are freed before the in-CSR is
//! built, so peak memory is the larger of the pairs plus their targets
//! (12 bytes a pair) and the finished CSR. [`Graph::relabel`] is the same
//! scatter-then-sort-rows over an existing CSR.

use crate::permutation::Permutation;
use crate::NodeId;

/// A directed graph in CSR form, storing both directions.
///
/// Immutable once built: every ordering produces a fresh relabelled graph
/// via [`Graph::relabel`], so algorithm runs on different orderings operate
/// on structurally identical but differently laid-out data. Building from
/// `m` raw pairs costs O(n + m + Σ d·log d) (see [`GraphBuilder::build`]);
/// the CSR itself takes `16(n + 1) + 8m` bytes.
#[derive(Clone, PartialEq, Eq)]
pub struct Graph {
    n: u32,
    out_offsets: Box<[u64]>,
    out_targets: Box<[NodeId]>,
    in_offsets: Box<[u64]>,
    in_targets: Box<[NodeId]>,
}

impl Graph {
    /// Builds a graph from an edge list. Duplicate edges are collapsed and
    /// self-loops dropped (the paper's datasets are simple directed graphs).
    ///
    /// `n` is the number of nodes; every endpoint must be `< n`.
    ///
    /// # Panics
    /// Panics if an endpoint is out of range. Use [`GraphBuilder`] for a
    /// checked, configurable construction path.
    pub fn from_edges(n: u32, edges: &[(NodeId, NodeId)]) -> Self {
        GraphBuilder::from_edges(n, edges.to_vec()).build()
    }

    /// The empty graph on `n` nodes.
    pub fn empty(n: u32) -> Self {
        Graph::from_edges(n, &[])
    }

    /// Number of nodes.
    #[inline]
    pub fn n(&self) -> u32 {
        self.n
    }

    /// Number of (directed) edges.
    #[inline]
    pub fn m(&self) -> u64 {
        self.out_targets.len() as u64
    }

    /// Out-neighbours of `u`, sorted ascending.
    #[inline]
    pub fn out_neighbors(&self, u: NodeId) -> &[NodeId] {
        let lo = self.out_offsets[u as usize] as usize;
        let hi = self.out_offsets[u as usize + 1] as usize;
        &self.out_targets[lo..hi]
    }

    /// In-neighbours of `u`, sorted ascending.
    #[inline]
    pub fn in_neighbors(&self, u: NodeId) -> &[NodeId] {
        let lo = self.in_offsets[u as usize] as usize;
        let hi = self.in_offsets[u as usize + 1] as usize;
        &self.in_targets[lo..hi]
    }

    /// Out-degree of `u`.
    #[inline]
    pub fn out_degree(&self, u: NodeId) -> u32 {
        (self.out_offsets[u as usize + 1] - self.out_offsets[u as usize]) as u32
    }

    /// In-degree of `u`.
    #[inline]
    pub fn in_degree(&self, u: NodeId) -> u32 {
        (self.in_offsets[u as usize + 1] - self.in_offsets[u as usize]) as u32
    }

    /// Total degree (in + out) of `u`.
    #[inline]
    pub fn degree(&self, u: NodeId) -> u32 {
        self.out_degree(u) + self.in_degree(u)
    }

    /// Whether the directed edge `(u, v)` exists. O(log deg(u)).
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.out_neighbors(u).binary_search(&v).is_ok()
    }

    /// Iterates over all directed edges `(u, v)` in CSR order.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        (0..self.n).flat_map(move |u| self.out_neighbors(u).iter().map(move |&v| (u, v)))
    }

    /// Iterates over all node ids `0..n`.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        0..self.n
    }

    /// Raw out-CSR arrays `(offsets, targets)`. Exposed for the cache
    /// simulator, which needs the exact memory layout to replay address
    /// streams.
    pub fn out_csr(&self) -> (&[u64], &[NodeId]) {
        (&self.out_offsets, &self.out_targets)
    }

    /// Raw in-CSR arrays `(offsets, targets)`.
    pub fn in_csr(&self) -> (&[u64], &[NodeId]) {
        (&self.in_offsets, &self.in_targets)
    }

    /// Node of maximum total degree; ties broken by smallest id. `None` on
    /// the empty graph. Used as a deterministic "interesting" source node.
    pub fn max_degree_node(&self) -> Option<NodeId> {
        (0..self.n).max_by_key(|&u| (self.degree(u), std::cmp::Reverse(u)))
    }

    /// Produces the graph with every node `u` renamed to `perm[u]`.
    ///
    /// The result is structurally identical (isomorphic via `perm`) with
    /// neighbour lists re-sorted, so algorithms traverse the same logical
    /// graph through a different memory layout.
    pub fn relabel(&self, perm: &Permutation) -> Graph {
        let _span = gorder_obs::span("graph.relabel");
        assert_eq!(
            perm.len(),
            self.n,
            "permutation is over {} nodes but graph has {}",
            perm.len(),
            self.n
        );
        let n = self.n as usize;
        // Out-degrees of the renamed nodes.
        let mut out_offsets = vec![0u64; n + 1];
        for u in 0..self.n {
            out_offsets[perm.apply(u) as usize + 1] = u64::from(self.out_degree(u));
        }
        for i in 0..n {
            out_offsets[i + 1] += out_offsets[i];
        }
        let mut out_targets = vec![0 as NodeId; self.out_targets.len()];
        for u in 0..self.n {
            let nu = perm.apply(u) as usize;
            let lo = out_offsets[nu] as usize;
            for (slot, &v) in out_targets[lo..].iter_mut().zip(self.out_neighbors(u)) {
                *slot = perm.apply(v);
            }
            let hi = lo + self.out_degree(u) as usize;
            out_targets[lo..hi].sort_unstable();
        }
        let (in_offsets, in_targets) = reverse_csr(self.n, &out_offsets, &out_targets);
        Graph {
            n: self.n,
            out_offsets: out_offsets.into_boxed_slice(),
            out_targets: out_targets.into_boxed_slice(),
            in_offsets: in_offsets.into_boxed_slice(),
            in_targets: in_targets.into_boxed_slice(),
        }
    }

    /// The transpose graph (every edge reversed). O(n + m), no re-sorting
    /// needed because both CSR directions are already stored.
    pub fn transpose(&self) -> Graph {
        Graph {
            n: self.n,
            out_offsets: self.in_offsets.clone(),
            out_targets: self.in_targets.clone(),
            in_offsets: self.out_offsets.clone(),
            in_targets: self.out_targets.clone(),
        }
    }

    /// Collects all edges into a vector (mainly for tests and I/O).
    pub fn edge_vec(&self) -> Vec<(NodeId, NodeId)> {
        self.edges().collect()
    }

    /// Approximate resident size in bytes of the four CSR arrays.
    pub fn memory_bytes(&self) -> usize {
        (self.out_offsets.len() + self.in_offsets.len()) * std::mem::size_of::<u64>()
            + (self.out_targets.len() + self.in_targets.len()) * std::mem::size_of::<NodeId>()
    }
}

impl std::fmt::Debug for Graph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Graph")
            .field("n", &self.n)
            .field("m", &self.m())
            .finish()
    }
}

/// Builds the reverse CSR (in-adjacency) from an out-CSR via counting sort.
/// Targets come out sorted because sources are scanned in ascending order.
fn reverse_csr(n: u32, offsets: &[u64], targets: &[NodeId]) -> (Vec<u64>, Vec<NodeId>) {
    let n = n as usize;
    let mut in_offsets = vec![0u64; n + 1];
    for &v in targets {
        in_offsets[v as usize + 1] += 1;
    }
    for i in 0..n {
        in_offsets[i + 1] += in_offsets[i];
    }
    let mut cursor: Vec<u64> = in_offsets[..n].to_vec();
    let mut in_targets = vec![0 as NodeId; targets.len()];
    for u in 0..n {
        let lo = offsets[u] as usize;
        let hi = offsets[u + 1] as usize;
        for &v in &targets[lo..hi] {
            let c = &mut cursor[v as usize];
            in_targets[*c as usize] = u as NodeId;
            *c += 1;
        }
    }
    (in_offsets, in_targets)
}

/// Incremental, checked construction of a [`Graph`].
///
/// Collects raw `(u, v)` pairs in any order, duplicates and self-loops
/// included. [`GraphBuilder::build`] turns them into the canonical CSR —
/// rows sorted, duplicates collapsed and (by default) self-loops dropped
/// — in O(n + m + Σ d·log d) time: a counting sort by source, then one
/// small sort per row, never a comparison sort over all pairs.
#[derive(Clone, Debug)]
pub struct GraphBuilder {
    n: u32,
    edges: Vec<(NodeId, NodeId)>,
    keep_self_loops: bool,
}

impl GraphBuilder {
    /// A builder for a graph on `n` nodes.
    pub fn new(n: u32) -> Self {
        GraphBuilder::with_capacity(n, 0)
    }

    /// Pre-allocates capacity for `m` edges.
    pub fn with_capacity(n: u32, m: usize) -> Self {
        GraphBuilder {
            n,
            edges: Vec::with_capacity(m),
            keep_self_loops: false,
        }
    }

    /// A builder that takes ownership of an already collected edge list,
    /// so the pairs are not copied a second time.
    ///
    /// # Panics
    /// Panics if an endpoint is `>= n`.
    pub(crate) fn from_edges(n: u32, edges: Vec<(NodeId, NodeId)>) -> Self {
        if let Some(&(u, v)) = edges.iter().find(|&&(u, v)| u >= n || v >= n) {
            panic!("edge ({u}, {v}) out of range for n = {n}");
        }
        GraphBuilder {
            n,
            edges,
            keep_self_loops: false,
        }
    }

    /// Keep self-loops instead of dropping them (default: drop).
    pub fn keep_self_loops(mut self, keep: bool) -> Self {
        self.keep_self_loops = keep;
        self
    }

    /// Number of nodes this builder was created for.
    pub fn n(&self) -> u32 {
        self.n
    }

    /// Number of edges added so far (before dedup).
    pub fn raw_edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Adds the directed edge `(u, v)`.
    ///
    /// # Panics
    /// Panics if `u >= n` or `v >= n`.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) {
        assert!(
            u < self.n && v < self.n,
            "edge ({u}, {v}) out of range for n = {}",
            self.n
        );
        self.edges.push((u, v));
    }

    /// Adds both `(u, v)` and `(v, u)`.
    pub fn add_undirected_edge(&mut self, u: NodeId, v: NodeId) {
        self.add_edge(u, v);
        self.add_edge(v, u);
    }

    /// Renames both endpoints of every edge added from index `start` on
    /// through `perm`. Building afterwards gives the same graph as
    /// building those edges and calling [`Graph::relabel`], without the
    /// intermediate CSR.
    pub(crate) fn relabel_from(&mut self, start: usize, perm: &Permutation) {
        assert_eq!(perm.len(), self.n, "permutation size must match n");
        for e in &mut self.edges[start..] {
            *e = (perm.apply(e.0), perm.apply(e.1));
        }
    }

    /// Finalises the CSR arrays.
    ///
    /// Counts each source's edges, scatters the targets into their rows,
    /// frees the pairs, then sorts and deduplicates each row in place
    /// while compacting the rows to the front. The result equals sorting
    /// the pairs lexicographically; the in-CSR comes from the same
    /// counting sort as [`Graph::relabel`]'s.
    pub fn build(self) -> Graph {
        let _span = gorder_obs::span("graph.build");
        let GraphBuilder {
            n,
            edges,
            keep_self_loops,
        } = self;
        let keep = |&(u, v): &(NodeId, NodeId)| keep_self_loops || u != v;
        let nu = n as usize;
        let mut out_offsets = vec![0u64; nu + 1];
        for &(u, _) in edges.iter().filter(|e| keep(e)) {
            out_offsets[u as usize + 1] += 1;
        }
        for i in 0..nu {
            out_offsets[i + 1] += out_offsets[i];
        }
        // Scatter, using `out_offsets[u]` as row u's cursor: afterwards it
        // holds the end of row u, i.e. the start of row u + 1.
        let mut out_targets = vec![0 as NodeId; out_offsets[nu] as usize];
        for &(u, v) in edges.iter().filter(|e| keep(e)) {
            let c = &mut out_offsets[u as usize];
            out_targets[*c as usize] = v;
            *c += 1;
        }
        drop(edges);
        // Sort and dedup each row, moving it down to `write`; `out_offsets[u]`
        // becomes the row's final start.
        let mut lo = 0;
        let mut write = 0;
        for offset in &mut out_offsets[..nu] {
            let hi = *offset as usize;
            *offset = write as u64;
            out_targets[lo..hi].sort_unstable();
            let mut last = None;
            for i in lo..hi {
                let v = out_targets[i];
                if last != Some(v) {
                    out_targets[write] = v;
                    write += 1;
                    last = Some(v);
                }
            }
            lo = hi;
        }
        out_offsets[nu] = write as u64;
        out_targets.truncate(write);
        let (in_offsets, in_targets) = reverse_csr(n, &out_offsets, &out_targets);
        Graph {
            n,
            out_offsets: out_offsets.into_boxed_slice(),
            out_targets: out_targets.into_boxed_slice(),
            in_offsets: in_offsets.into_boxed_slice(),
            in_targets: in_targets.into_boxed_slice(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Graph {
        // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3, 3 -> 0
        Graph::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3), (3, 0)])
    }

    #[test]
    fn counts() {
        let g = diamond();
        assert_eq!(g.n(), 4);
        assert_eq!(g.m(), 5);
    }

    #[test]
    fn out_neighbors_sorted() {
        let g = Graph::from_edges(4, &[(0, 3), (0, 1), (0, 2)]);
        assert_eq!(g.out_neighbors(0), &[1, 2, 3]);
    }

    #[test]
    fn in_neighbors() {
        let g = diamond();
        assert_eq!(g.in_neighbors(3), &[1, 2]);
        assert_eq!(g.in_neighbors(0), &[3]);
        assert_eq!(g.in_neighbors(1), &[0]);
    }

    #[test]
    fn degrees() {
        let g = diamond();
        assert_eq!(g.out_degree(0), 2);
        assert_eq!(g.in_degree(0), 1);
        assert_eq!(g.degree(0), 3);
        assert_eq!(g.in_degree(3), 2);
    }

    #[test]
    fn dedup_and_self_loops() {
        let g = Graph::from_edges(3, &[(0, 1), (0, 1), (1, 1), (1, 2)]);
        assert_eq!(g.m(), 2);
        assert_eq!(g.out_neighbors(1), &[2]);
    }

    #[test]
    fn self_loops_kept_when_asked() {
        let mut b = GraphBuilder::new(3).keep_self_loops(true);
        b.add_edge(1, 1);
        b.add_edge(0, 1);
        let g = b.build();
        assert_eq!(g.m(), 2);
        assert!(g.has_edge(1, 1));
    }

    #[test]
    fn has_edge() {
        let g = diamond();
        assert!(g.has_edge(0, 1));
        assert!(!g.has_edge(1, 0));
        assert!(g.has_edge(3, 0));
        assert!(!g.has_edge(3, 3));
    }

    #[test]
    fn edges_iterator_roundtrip() {
        let edges = vec![(0, 1), (0, 2), (1, 3), (2, 3), (3, 0)];
        let g = Graph::from_edges(4, &edges);
        let mut collected = g.edge_vec();
        collected.sort_unstable();
        assert_eq!(collected, edges);
    }

    #[test]
    fn empty_graph() {
        let g = Graph::empty(5);
        assert_eq!(g.n(), 5);
        assert_eq!(g.m(), 0);
        for u in g.nodes() {
            assert!(g.out_neighbors(u).is_empty());
            assert!(g.in_neighbors(u).is_empty());
        }
    }

    #[test]
    fn zero_node_graph() {
        let g = Graph::empty(0);
        assert_eq!(g.n(), 0);
        assert_eq!(g.m(), 0);
        assert_eq!(g.max_degree_node(), None);
    }

    #[test]
    fn transpose_inverts_edges() {
        let g = diamond();
        let t = g.transpose();
        assert_eq!(t.m(), g.m());
        for (u, v) in g.edges() {
            assert!(t.has_edge(v, u));
        }
        // Transposing twice gives back the original.
        assert_eq!(t.transpose(), g);
    }

    #[test]
    fn relabel_identity_is_noop() {
        let g = diamond();
        let id = Permutation::identity(4);
        assert_eq!(g.relabel(&id), g);
    }

    #[test]
    fn relabel_reverse() {
        let g = diamond();
        // perm maps u -> 3 - u
        let perm = Permutation::try_new(vec![3, 2, 1, 0]).unwrap();
        let h = g.relabel(&perm);
        assert_eq!(h.m(), g.m());
        for (u, v) in g.edges() {
            assert!(h.has_edge(3 - u, 3 - v));
        }
        // In-adjacency is consistent with out-adjacency.
        for (u, v) in h.edges() {
            assert!(h.in_neighbors(v).contains(&u));
        }
    }

    #[test]
    fn max_degree_node_tie_break() {
        // nodes 0 and 1 both have degree 2 (one out, one in); smallest id wins
        let g = Graph::from_edges(3, &[(0, 1), (1, 0)]);
        assert_eq!(g.max_degree_node(), Some(0));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn builder_rejects_out_of_range() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_edges_rejects_out_of_range() {
        Graph::from_edges(2, &[(0, 1), (2, 0)]);
    }

    #[test]
    fn memory_bytes_positive() {
        let g = diamond();
        // 2 offset arrays of 5 u64 + 2 target arrays of 5 u32
        assert_eq!(g.memory_bytes(), 2 * 5 * 8 + 2 * 5 * 4);
    }
}
