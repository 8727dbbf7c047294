//! Tri — triangle counting (extension kernel).
//!
//! Counts triangles in the symmetrised simple graph with the standard
//! forward algorithm: orient every undirected edge from the lower-rank
//! endpoint to the higher (rank = simple degree, ties by id), then
//! intersect the forward lists of each forward edge's endpoints.
//! O(m^{3/2}) worst case, far better on skewed graphs. The intersection
//! loops read neighbour lists of *pairs* of adjacent nodes — co-access
//! that node orderings directly influence, which is why triangle
//! counting is a favourite beneficiary in the reordering literature that
//! followed the paper.
//!
//! Three `iterate`s, one per pass: merge both CSR sides into simple
//! undirected lists, orient them into one flat forward arena, intersect.
//! `edges_relaxed` counts the entries each pass reads (both CSR sides,
//! every undirected entry, every forward edge).

use crate::mem::{BufferPool, GraphSlots, Probe, Slot};
use crate::{Exec, ExecPlan, Kernel, KernelCtx};
use gorder_graph::{Graph, NodeId};

/// Tri as an engine kernel; one `iterate` is one of its three passes.
pub struct TriKernel {
    gs: Option<GraphSlots>,
    deg_slot: Slot,
    fwd_slot: Slot,
    /// Simple undirected lists, flattened: `und[und_off[u]..und_off[u + 1]]`.
    und: Vec<NodeId>,
    und_off: Vec<usize>,
    /// Forward lists, flattened the same way.
    fwd: Vec<NodeId>,
    fwd_off: Vec<usize>,
    passes: u32,
    count: u64,
}

impl TriKernel {
    /// A kernel ready for `init`.
    pub fn new() -> Self {
        TriKernel {
            gs: None,
            deg_slot: Slot::new(0),
            fwd_slot: Slot::new(0),
            und: Vec::new(),
            und_off: Vec::new(),
            fwd: Vec::new(),
            fwd_off: Vec::new(),
            passes: 0,
            count: 0,
        }
    }

    /// Merges out- and in-lists into sorted, deduplicated, loop-free
    /// undirected lists.
    fn merge<P: Probe>(&mut self, g: &Graph, gs: GraphSlots, ex: &mut Exec<'_, P>) {
        let mut merged: Vec<NodeId> = Vec::new();
        self.und_off.push(0);
        for u in g.nodes() {
            let (out_list, out_base) = gs.out_list(&mut ex.probe, g, u);
            for k in 0..out_list.len() {
                ex.probe.touch(gs.out_tgt, out_base + k);
            }
            let (in_list, in_base) = gs.in_list(&mut ex.probe, g, u);
            for k in 0..in_list.len() {
                ex.probe.touch(gs.in_tgt, in_base + k);
            }
            ex.stats.edges_relaxed += (out_list.len() + in_list.len()) as u64;
            merged.clear();
            merged.extend_from_slice(out_list);
            merged.extend_from_slice(in_list);
            merged.sort_unstable();
            ex.probe.op(merged.len() as u64); // sort + dedup bookkeeping
            merged.dedup();
            merged.retain(|&v| v != u);
            self.und.extend_from_slice(&merged);
            self.und_off.push(self.und.len());
        }
    }

    /// Keeps, per node, the undirected neighbours of higher rank; the
    /// rank's degree lookups are modelled as an attribute array.
    fn orient<P: Probe>(&mut self, g: &Graph, ex: &mut Exec<'_, P>) {
        let n = g.n() as usize;
        self.deg_slot = ex.probe.alloc(n, 4);
        let off = &self.und_off;
        let rank = |u: NodeId| (off[u as usize + 1] - off[u as usize], u);
        self.fwd_off.push(0);
        for u in 0..n {
            let list = &self.und[off[u]..off[u + 1]];
            ex.stats.edges_relaxed += list.len() as u64;
            for &v in list {
                ex.probe.touch(self.deg_slot, v as usize);
                ex.probe.op(1);
                if rank(v) > rank(u as NodeId) {
                    self.fwd.push(v);
                }
            }
            self.fwd_off.push(self.fwd.len());
        }
        self.fwd_slot = ex.probe.alloc(self.fwd.len().max(1), 4);
    }

    /// Counts, for every forward edge (u, v), the common forward
    /// neighbours of u and v.
    fn intersect<P: Probe>(&mut self, g: &Graph, ex: &mut Exec<'_, P>) {
        let (fwd, off) = (&self.fwd, &self.fwd_off);
        for u in 0..g.n() as usize {
            let a = &fwd[off[u]..off[u + 1]];
            ex.stats.edges_relaxed += a.len() as u64;
            for (ku, &v) in a.iter().enumerate() {
                ex.probe.touch(self.fwd_slot, off[u] + ku);
                let b = &fwd[off[v as usize]..off[v as usize + 1]];
                let (mut i, mut j) = (0, 0);
                while i < a.len() && j < b.len() {
                    ex.probe.touch(self.fwd_slot, off[u] + i);
                    ex.probe.touch(self.fwd_slot, off[v as usize] + j);
                    ex.probe.op(1);
                    match a[i].cmp(&b[j]) {
                        std::cmp::Ordering::Less => i += 1,
                        std::cmp::Ordering::Greater => j += 1,
                        std::cmp::Ordering::Equal => {
                            self.count += 1;
                            i += 1;
                            j += 1;
                        }
                    }
                }
            }
        }
    }
}

impl Default for TriKernel {
    fn default() -> Self {
        TriKernel::new()
    }
}

impl<P: Probe> Kernel<P> for TriKernel {
    fn name(&self) -> &'static str {
        "Tri"
    }

    fn init(&mut self, g: &Graph, _ctx: &KernelCtx, ex: &mut Exec<'_, P>) {
        let n = g.n() as usize;
        self.gs = Some(GraphSlots::new(&mut ex.probe, g));
        self.und = ex.pool.take_nodes(2 * g.m() as usize);
        self.fwd = ex.pool.take_nodes(g.m() as usize);
        self.und_off = Vec::with_capacity(n + 1);
        self.fwd_off = Vec::with_capacity(n + 1);
    }

    fn converged(&self) -> bool {
        self.passes == 3
    }

    fn iterate(&mut self, g: &Graph, _ctx: &KernelCtx, ex: &mut Exec<'_, P>) {
        let gs = self.gs.expect("init before iterate");
        match self.passes {
            0 => self.merge(g, gs, ex),
            1 => self.orient(g, ex),
            _ => self.intersect(g, ex),
        }
        self.passes += 1;
    }

    fn finish(&mut self, _g: &Graph, _ctx: &KernelCtx, _ex: &mut Exec<'_, P>) -> u64 {
        // The triangle count is invariant under relabeling.
        self.count
    }

    fn reclaim(&mut self, pool: &mut BufferPool) {
        pool.put_nodes(std::mem::take(&mut self.und));
        pool.put_nodes(std::mem::take(&mut self.fwd));
    }
}

/// Counts triangles in the symmetrised simple graph.
pub fn count_triangles(g: &Graph) -> u64 {
    let mut kernel = TriKernel::new();
    crate::run_unprobed(&mut kernel, g, &KernelCtx::default(), ExecPlan::Serial);
    kernel.count
}

#[cfg(test)]
mod tests {
    use super::*;
    use gorder_graph::gen::{preferential_attachment, PrefAttachConfig};
    use gorder_graph::Permutation;
    use rand::SeedableRng;

    /// O(n³) reference count on the symmetrised simple graph.
    fn naive(g: &Graph) -> u64 {
        let n = g.n();
        let adj = |u: NodeId, v: NodeId| g.has_edge(u, v) || g.has_edge(v, u);
        let mut count = 0;
        for a in 0..n {
            for b in a + 1..n {
                for c in b + 1..n {
                    if adj(a, b) && adj(b, c) && adj(a, c) {
                        count += 1;
                    }
                }
            }
        }
        count
    }

    fn pa(n: u32, closure_prob: f64, seed: u64) -> Graph {
        preferential_attachment(PrefAttachConfig {
            n,
            out_degree: 5,
            reciprocity: 0.3,
            uniform_mix: 0.2,
            closure_prob,
            recency_bias: 0.2,
            seed,
        })
    }

    #[test]
    fn small_shapes() {
        let triangle = Graph::from_edges(3, &[(0, 1), (1, 2), (2, 0)]);
        assert_eq!(count_triangles(&triangle), 1);
        // a fully bidirected triangle is still one triangle
        let bidirected = Graph::from_edges(3, &[(0, 1), (1, 0), (1, 2), (2, 1), (2, 0), (0, 2)]);
        assert_eq!(count_triangles(&bidirected), 1);
        let square = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        assert_eq!(count_triangles(&square), 0);
        let k4: Vec<(NodeId, NodeId)> = (0..4u32)
            .flat_map(|a| (a + 1..4).map(move |b| (a, b)))
            .collect();
        assert_eq!(count_triangles(&Graph::from_edges(4, &k4)), 4);
        // {0,1,2} and {0,1,3} in the symmetrised view
        let two = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 0), (0, 3), (3, 1)]);
        assert_eq!(count_triangles(&two), 2);
        assert_eq!(count_triangles(&Graph::empty(0)), 0);
    }

    #[test]
    fn matches_naive_on_random_graphs() {
        for seed in 0..4 {
            let g = pa(60, 0.4, seed);
            assert_eq!(count_triangles(&g), naive(&g), "seed {seed}");
        }
    }

    #[test]
    fn invariant_under_relabel() {
        let g = pa(150, 0.4, 9);
        let perm = Permutation::random(g.n(), &mut rand::rngs::StdRng::seed_from_u64(2));
        assert_eq!(count_triangles(&g), count_triangles(&g.relabel(&perm)));
    }

    #[test]
    fn closure_raises_clustering() {
        // global clustering coefficient: 3·triangles / open wedges
        let clustering = |g: &Graph| {
            let wedges: u64 = g
                .nodes()
                .map(|u| {
                    let mut merged: Vec<NodeId> = g
                        .out_neighbors(u)
                        .iter()
                        .chain(g.in_neighbors(u))
                        .copied()
                        .filter(|&v| v != u)
                        .collect();
                    merged.sort_unstable();
                    merged.dedup();
                    let d = merged.len() as u64;
                    d * d.saturating_sub(1) / 2
                })
                .sum();
            3.0 * count_triangles(g) as f64 / wedges.max(1) as f64
        };
        let high = clustering(&pa(800, 0.6, 5));
        let low = clustering(&pa(800, 0.0, 5));
        assert!(
            high > 2.0 * low.max(1e-6),
            "closure should raise clustering: {high} vs {low}"
        );
    }

    #[test]
    fn three_passes_read_every_list() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 0), (0, 3)]);
        let run = crate::run_by_name("Tri", &g, &KernelCtx::default()).unwrap();
        assert_eq!(run.checksum, 1);
        assert_eq!(run.stats.iterations, 3);
        // 2m CSR entries, 2m undirected entries, m forward edges
        assert_eq!(run.stats.edges_relaxed, 5 * g.m());
    }
}
