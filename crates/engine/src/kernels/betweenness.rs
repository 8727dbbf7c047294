//! BC — approximate betweenness centrality (extension kernel).
//!
//! Brandes' algorithm from a sampled set of source nodes: one BFS per
//! source plus a reverse dependency-accumulation sweep. Normalised by the
//! sample count, this is the standard unbiased estimator of betweenness.
//! The accumulation pass reads and writes `sigma`/`delta`/`dist` entries
//! for every edge of the BFS DAG in reverse level order — one of the most
//! cache-punishing access patterns in graph analytics, and a natural
//! beneficiary of reordering. One `iterate` processes one source.

use crate::mem::{BufferPool, GraphSlots, Probe, Slot};
use crate::{Exec, ExecPlan, Kernel, KernelCtx};
use gorder_graph::{Graph, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Sources the registered kernel samples from the context's seed.
pub const BC_SAMPLES: u32 = 8;

/// Result of a betweenness estimation.
#[derive(Debug, Clone, PartialEq)]
pub struct BetweennessResult {
    /// Estimated centrality per node (averaged over sources).
    pub score: Vec<f64>,
    /// Sources actually used.
    pub sources: Vec<NodeId>,
}

/// The per-node arrays of a Brandes sweep and their probe handles.
struct Sweep {
    dist: Vec<u32>,
    sigma: Vec<f64>,
    delta: Vec<f64>,
    order: Vec<NodeId>,
    score: Vec<f64>,
    dist_slot: Slot,
    sigma_slot: Slot,
    delta_slot: Slot,
    order_slot: Slot,
    score_slot: Slot,
}

/// BC as an engine kernel; one `iterate` is one source's forward BFS and
/// reverse accumulation.
pub struct BcKernel {
    gs: Option<GraphSlots>,
    sweep: Option<Sweep>,
    sources: Vec<NodeId>,
    preset: Option<Vec<NodeId>>,
    next_src: usize,
}

impl BcKernel {
    /// A kernel that samples [`BC_SAMPLES`] sources from the context's
    /// seed.
    pub fn new() -> Self {
        BcKernel {
            gs: None,
            sweep: None,
            sources: Vec::new(),
            preset: None,
            next_src: 0,
        }
    }

    /// A kernel that accumulates from exactly the given sources instead
    /// of sampling.
    pub fn with_sources(sources: Vec<NodeId>) -> Self {
        BcKernel {
            preset: Some(sources),
            ..BcKernel::new()
        }
    }

    /// Σ score / |sources|, summed in node order.
    fn total(&self) -> f64 {
        let Some(sweep) = self.sweep.as_ref().filter(|_| !self.sources.is_empty()) else {
            return 0.0;
        };
        let inv = 1.0 / self.sources.len() as f64;
        sweep.score.iter().map(|&x| x * inv).sum()
    }

    /// The averaged scores (after the run).
    pub fn into_result(self) -> BetweennessResult {
        let mut score = self.sweep.map(|s| s.score).unwrap_or_default();
        if !self.sources.is_empty() {
            let inv = 1.0 / self.sources.len() as f64;
            score.iter_mut().for_each(|x| *x *= inv);
        }
        BetweennessResult {
            score,
            sources: self.sources,
        }
    }
}

impl Default for BcKernel {
    fn default() -> Self {
        BcKernel::new()
    }
}

impl<P: Probe> Kernel<P> for BcKernel {
    fn name(&self) -> &'static str {
        "BC"
    }

    fn init(&mut self, g: &Graph, ctx: &KernelCtx, ex: &mut Exec<'_, P>) {
        let n = g.n() as usize;
        if n == 0 {
            self.sources = self.preset.take().unwrap_or_default();
            self.next_src = self.sources.len();
            return;
        }
        let gs = GraphSlots::new(&mut ex.probe, g);
        self.sweep = Some(Sweep {
            dist_slot: ex.probe.alloc(n, 4),
            sigma_slot: ex.probe.alloc(n, 8),
            delta_slot: ex.probe.alloc(n, 8),
            order_slot: ex.probe.alloc(n, 4),
            score_slot: ex.probe.alloc(n, 8),
            dist: ex.pool.take_u32(n, u32::MAX),
            sigma: ex.pool.take_f64(n, 0.0),
            delta: ex.pool.take_f64(n, 0.0),
            order: ex.pool.take_nodes(n),
            score: ex.pool.take_f64(n, 0.0),
        });
        self.sources = self.preset.take().unwrap_or_else(|| {
            let mut rng = StdRng::seed_from_u64(ctx.seed);
            (0..BC_SAMPLES).map(|_| rng.gen_range(0..g.n())).collect()
        });
        self.gs = Some(gs);
    }

    fn converged(&self) -> bool {
        self.next_src >= self.sources.len()
    }

    fn iterate(&mut self, g: &Graph, _ctx: &KernelCtx, ex: &mut Exec<'_, P>) {
        let gs = self.gs.expect("init before iterate");
        let s = self.sources[self.next_src];
        self.next_src += 1;
        let w = self.sweep.as_mut().expect("init before iterate");
        let last = w.dist.len() - 1;
        w.dist.fill(u32::MAX);
        w.sigma.fill(0.0);
        w.delta.fill(0.0);
        // the reset passes are sequential sweeps over three arrays
        for i in 0..=last {
            ex.probe.touch(w.dist_slot, i);
            ex.probe.touch(w.sigma_slot, i);
            ex.probe.touch(w.delta_slot, i);
        }
        w.order.clear();
        w.dist[s as usize] = 0;
        w.sigma[s as usize] = 1.0;
        w.order.push(s);
        ex.stats.frontier_pushes += 1;

        // forward BFS counting shortest paths
        let mut head = 0;
        while head < w.order.len() {
            ex.probe.touch(w.order_slot, head);
            let u = w.order[head];
            head += 1;
            let du = w.dist[u as usize];
            let (list, base) = gs.out_list(&mut ex.probe, g, u);
            ex.stats.edges_relaxed += list.len() as u64;
            for (k, &v) in list.iter().enumerate() {
                ex.probe.touch(gs.out_tgt, base + k);
                ex.probe.touch(w.dist_slot, v as usize);
                ex.probe.op(1);
                if w.dist[v as usize] == u32::MAX {
                    w.dist[v as usize] = du + 1;
                    ex.probe.touch(w.dist_slot, v as usize);
                    ex.probe.touch(w.order_slot, w.order.len().min(last));
                    w.order.push(v);
                    ex.stats.frontier_pushes += 1;
                }
                if w.dist[v as usize] == du + 1 {
                    w.sigma[v as usize] += w.sigma[u as usize];
                    ex.probe.touch(w.sigma_slot, v as usize);
                    ex.probe.touch(w.sigma_slot, u as usize);
                }
            }
        }

        // reverse accumulation
        for (idx, &u) in w.order.iter().enumerate().rev() {
            ex.probe.touch(w.order_slot, idx);
            let du = w.dist[u as usize];
            let (list, base) = gs.out_list(&mut ex.probe, g, u);
            ex.stats.edges_relaxed += list.len() as u64;
            for (k, &v) in list.iter().enumerate() {
                ex.probe.touch(gs.out_tgt, base + k);
                ex.probe.touch(w.dist_slot, v as usize);
                ex.probe.op(1);
                if w.dist[v as usize] == du + 1 {
                    w.delta[u as usize] +=
                        w.sigma[u as usize] / w.sigma[v as usize] * (1.0 + w.delta[v as usize]);
                    ex.probe.touch(w.sigma_slot, u as usize);
                    ex.probe.touch(w.sigma_slot, v as usize);
                    ex.probe.touch(w.delta_slot, v as usize);
                    ex.probe.touch(w.delta_slot, u as usize);
                }
            }
            if u != s {
                w.score[u as usize] += w.delta[u as usize];
                ex.probe.touch(w.score_slot, u as usize);
            }
        }
        ex.stats.note_frontier_peak(w.order.len());
    }

    fn finish(&mut self, _g: &Graph, _ctx: &KernelCtx, _ex: &mut Exec<'_, P>) -> u64 {
        // Total betweenness (in thousandths) is invariant under relabeling
        // for a fixed set of logical sources.
        (self.total() * 1e3).round() as u64
    }

    fn reclaim(&mut self, pool: &mut BufferPool) {
        if let Some(w) = self.sweep.take() {
            pool.put_u32(w.dist);
            pool.put_f64(w.sigma);
            pool.put_f64(w.delta);
            pool.put_nodes(w.order);
            pool.put_f64(w.score);
        }
    }
}

/// Brandes accumulation from the given sources (deterministic).
pub fn betweenness_from_sources(g: &Graph, sources: &[NodeId]) -> BetweennessResult {
    let mut kernel = BcKernel::with_sources(sources.to_vec());
    crate::run_unprobed(&mut kernel, g, &KernelCtx::default(), ExecPlan::Serial);
    kernel.into_result()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gorder_graph::Permutation;

    /// Exact betweenness = all nodes as sources.
    fn exact(g: &Graph) -> Vec<f64> {
        let sources: Vec<NodeId> = g.nodes().collect();
        let r = betweenness_from_sources(g, &sources);
        // undo the averaging to get raw pair-dependency sums
        r.score.iter().map(|&x| x * sources.len() as f64).collect()
    }

    #[test]
    fn path_center_dominates() {
        // directed path 0 → 1 → 2 → 3 → 4: node 2 lies on the most paths
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let b = exact(&g);
        // dependencies: node 2 is on 0→3, 0→4, 1→3, 1→4 = 4
        assert!((b[2] - 4.0).abs() < 1e-9, "b[2] = {}", b[2]);
        assert!(b[0].abs() < 1e-9, "endpoints carry nothing");
        assert!(b[2] > b[1] && b[2] > b[3]);
    }

    #[test]
    fn star_center_takes_all() {
        // bidirected star around 0 with 4 leaves
        let edges: Vec<(NodeId, NodeId)> = (1..=4u32).flat_map(|l| [(0, l), (l, 0)]).collect();
        let g = Graph::from_edges(5, &edges);
        let b = exact(&g);
        // every leaf pair's shortest path goes through 0: 4·3 = 12
        assert!((b[0] - 12.0).abs() < 1e-9, "b[0] = {}", b[0]);
        for leaf in &b[1..=4] {
            assert!(leaf.abs() < 1e-9);
        }
    }

    #[test]
    fn split_paths_share_dependency() {
        // 0 → {1, 2} → 3: two equal shortest paths to 3
        let g = Graph::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        let b = exact(&g);
        assert!((b[1] - 0.5).abs() < 1e-12, "b[1] = {}", b[1]);
        assert!((b[2] - 0.5).abs() < 1e-12);
        assert_eq!(b[3], 0.0);
    }

    #[test]
    fn scores_map_through_permutation() {
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (0, 2)]);
        let perm = Permutation::try_new(vec![3, 0, 4, 1, 2]).unwrap();
        let h = g.relabel(&perm);
        let sources: Vec<NodeId> = g.nodes().collect();
        let mapped: Vec<NodeId> = sources.iter().map(|&s| perm.apply(s)).collect();
        let bg = betweenness_from_sources(&g, &sources);
        let bh = betweenness_from_sources(&h, &mapped);
        for u in g.nodes() {
            let (a, b) = (bg.score[u as usize], bh.score[perm.apply(u) as usize]);
            assert!((a - b).abs() < 1e-12, "node {u}: {a} vs {b}");
        }
    }

    #[test]
    fn sampling_is_deterministic_with_one_iterate_per_source() {
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]);
        let ctx = KernelCtx {
            seed: 9,
            ..Default::default()
        };
        let a = crate::run_by_name("BC", &g, &ctx).unwrap();
        let b = crate::run_by_name("BC", &g, &ctx).unwrap();
        assert_eq!(a.checksum, b.checksum);
        assert_eq!(a.stats.iterations, u64::from(BC_SAMPLES));
        // the forward and the reverse sweep each read the whole cycle
        assert_eq!(a.stats.edges_relaxed, 2 * g.m() * u64::from(BC_SAMPLES));
        // on a directed 6-cycle every source puts 0+1+2+3+4 = 10 on the others
        assert_eq!(a.checksum, 10_000);
    }

    #[test]
    fn empty_graph() {
        let r = betweenness_from_sources(&Graph::empty(0), &[]);
        assert!(r.score.is_empty());
        let run = crate::run_by_name("BC", &Graph::empty(0), &KernelCtx::default()).unwrap();
        assert_eq!(run.checksum, 0);
    }
}
