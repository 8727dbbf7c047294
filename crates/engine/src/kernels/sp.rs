//! SP — single-source shortest paths by Bellman–Ford.
//!
//! The paper deliberately uses round-based Bellman–Ford on the
//! unweighted graph (not BFS): every round scans *all* edges and relaxes
//! those that improve a distance, stopping when a round changes nothing.
//! With hop distances that is O(Δ·m) for graph diameter Δ — cheap on
//! small-diameter real-world graphs, and its full-edge-scan access
//! pattern is exactly the kind of attribute-array traffic that node
//! ordering accelerates. One `iterate` is one full relaxation round
//! (the final no-change round included, matching the legacy `rounds`
//! count).

use crate::mem::{BufferPool, GraphSlots, Probe, Slot};
use crate::{Exec, ExecPlan, Kernel, KernelCtx};
use gorder_graph::{Graph, NodeId};

/// Distance value for unreachable nodes.
pub const UNREACHABLE: u32 = u32::MAX;

/// Result of a Bellman–Ford run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpResult {
    /// Hop distance from the source (`UNREACHABLE` if not reachable).
    pub dist: Vec<u32>,
    /// Number of full-edge-scan rounds executed (≤ diameter + 1).
    pub rounds: u32,
}

impl SpResult {
    /// Number of reachable nodes (including the source).
    pub fn reached(&self) -> u32 {
        self.dist.iter().filter(|&&d| d != UNREACHABLE).count() as u32
    }

    /// Maximum finite distance (the source's eccentricity).
    pub fn eccentricity(&self) -> u32 {
        self.dist
            .iter()
            .copied()
            .filter(|&d| d != UNREACHABLE)
            .max()
            .unwrap_or(0)
    }
}

/// One full Bellman–Ford relaxation round over `dist`; returns whether
/// any distance improved. Shared by the SP and Diam kernels so both
/// exhibit the identical scan/touch pattern.
pub(crate) fn relax_round<P: Probe>(
    g: &Graph,
    gs: &GraphSlots,
    dist_slot: Slot,
    dist: &mut [u32],
    ex: &mut Exec<'_, P>,
) -> bool {
    let mut changed = false;
    for u in g.nodes() {
        ex.probe.touch(dist_slot, u as usize);
        let du = dist[u as usize];
        if du == UNREACHABLE {
            continue;
        }
        let cand = du + 1;
        let (list, base) = gs.out_list(&mut ex.probe, g, u);
        for (k, &v) in list.iter().enumerate() {
            ex.probe.touch(gs.out_tgt, base + k);
            ex.probe.touch(dist_slot, v as usize);
            ex.probe.op(1);
            ex.stats.edges_relaxed += 1;
            if cand < dist[v as usize] {
                dist[v as usize] = cand;
                ex.probe.touch(dist_slot, v as usize); // the write
                changed = true;
            }
        }
    }
    ex.probe.op(1);
    changed
}

/// SP as an engine kernel; one `iterate` is one relaxation round.
pub struct SpKernel {
    gs: Option<GraphSlots>,
    dist_slot: Slot,
    dist: Vec<u32>,
    rounds: u32,
    done: bool,
}

impl SpKernel {
    /// A kernel ready for `init`.
    pub fn new() -> Self {
        SpKernel {
            gs: None,
            dist_slot: Slot::new(0),
            dist: Vec::new(),
            rounds: 0,
            done: false,
        }
    }

    /// The shortest-path result (after the run).
    pub fn into_result(self) -> SpResult {
        SpResult {
            dist: self.dist,
            rounds: self.rounds,
        }
    }
}

impl Default for SpKernel {
    fn default() -> Self {
        SpKernel::new()
    }
}

impl<P: Probe> Kernel<P> for SpKernel {
    fn name(&self) -> &'static str {
        "SP"
    }

    fn init(&mut self, g: &Graph, ctx: &KernelCtx, ex: &mut Exec<'_, P>) {
        let n = g.n() as usize;
        if n == 0 {
            self.done = true;
            return;
        }
        let gs = GraphSlots::new(&mut ex.probe, g);
        self.dist_slot = ex.probe.alloc(n, 4);
        self.dist = ex.pool.take_u32(n, UNREACHABLE);
        let source = ctx.source_for(g);
        self.dist[source as usize] = 0;
        ex.probe.touch(self.dist_slot, source as usize);
        self.gs = Some(gs);
    }

    fn converged(&self) -> bool {
        self.done
    }

    fn iterate(&mut self, g: &Graph, _ctx: &KernelCtx, ex: &mut Exec<'_, P>) {
        let gs = self.gs.expect("init before iterate");
        self.rounds += 1;
        if !relax_round(g, &gs, self.dist_slot, &mut self.dist, ex) {
            self.done = true;
        }
    }

    fn finish(&mut self, _g: &Graph, _ctx: &KernelCtx, _ex: &mut Exec<'_, P>) -> u64 {
        // Distances from a mapped source are invariant under relabeling.
        self.dist
            .iter()
            .filter(|&&d| d != UNREACHABLE)
            .fold(0u64, |a, &d| a.wrapping_add(u64::from(d)).wrapping_add(1))
    }

    fn reclaim(&mut self, pool: &mut BufferPool) {
        pool.put_u32(std::mem::take(&mut self.dist));
    }
}

/// Round-based Bellman–Ford from `source` over unit edge weights.
pub fn bellman_ford(g: &Graph, source: NodeId) -> SpResult {
    let mut kernel = SpKernel::new();
    let ctx = KernelCtx {
        source: Some(source),
        ..Default::default()
    };
    crate::run_unprobed(&mut kernel, g, &ctx, ExecPlan::Serial);
    kernel.into_result()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distances_on_path() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let r = bellman_ford(&g, 0);
        assert_eq!(r.dist, vec![0, 1, 2, 3]);
        assert_eq!(r.eccentricity(), 3);
        assert_eq!(r.reached(), 4);
    }

    #[test]
    fn unreachable_marked() {
        let g = Graph::from_edges(3, &[(1, 2)]);
        let r = bellman_ford(&g, 0);
        assert_eq!(r.dist, vec![0, UNREACHABLE, UNREACHABLE]);
        assert_eq!(r.reached(), 1);
        assert_eq!(r.eccentricity(), 0);
    }

    #[test]
    fn empty() {
        let r = bellman_ford(&Graph::empty(0), 0);
        assert_eq!(r.rounds, 0);
    }

    #[test]
    fn rounds_count_includes_settling_round() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let r = bellman_ford(&g, 0);
        // ascending path settles in round 1; round 2 confirms no change
        assert_eq!(r.rounds, 2);
    }

    #[test]
    fn shortest_of_two_routes() {
        // 0 -> 1 -> 2 -> 4 and 0 -> 3 -> 4
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 4), (0, 3), (3, 4)]);
        assert_eq!(bellman_ford(&g, 0).dist[4], 2);
    }

    #[test]
    fn direction_respected() {
        let g = Graph::from_edges(2, &[(1, 0)]);
        assert_eq!(bellman_ford(&g, 0).dist[1], UNREACHABLE);
    }

    #[test]
    fn matches_bfs_depths() {
        let edges = [
            (0, 1),
            (0, 2),
            (1, 3),
            (2, 3),
            (3, 4),
            (4, 5),
            (2, 5),
            (6, 0),
        ];
        let g = Graph::from_edges(7, &edges);
        let sp = bellman_ford(&g, 0);
        let bfs = crate::kernels::bfs::bfs(&g, 0);
        for u in 0..7usize {
            let bd = if u == 6 { UNREACHABLE } else { bfs.depth[u] };
            assert_eq!(sp.dist[u], bd, "node {u}");
        }
    }
}
