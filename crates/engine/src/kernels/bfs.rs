//! BFS — breadth-first search.
//!
//! Full-coverage traversal: a BFS from the context source, then restarts
//! from every still-unvisited node in ascending id order, so every node
//! and every out-edge is touched exactly once regardless of
//! connectivity. Neighbours are visited in ascending id order (the CSR
//! order). Each `iterate` either seeds the next tree or expands one
//! frontier level; level-synchronous expansion visits nodes in exactly
//! the order of the legacy FIFO formulation.

use crate::mem::{BufferPool, Frontier, GraphSlots, Probe, Slot};
use crate::partition::split_even;
use crate::{parallel, Exec, ExecPlan, Kernel, KernelCtx};
use gorder_graph::{Graph, NodeId};

/// Result of a full-coverage BFS.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BfsResult {
    /// `depth[u]` within its own BFS tree (every node is in exactly one).
    pub depth: Vec<u32>,
    /// Nodes in visit order.
    pub order: Vec<NodeId>,
    /// Number of nodes reached from the primary source (before restarts).
    pub primary_reached: u32,
}

/// BFS as an engine kernel; one `iterate` is one frontier level (or one
/// restart-tree seeding when the current level is empty).
pub struct BfsKernel {
    gs: Option<GraphSlots>,
    depth_slot: Slot,
    order_slot: Slot,
    depth: Vec<u32>,
    frontier: Frontier,
    /// Next start candidate: 0 = the context source, `k` = node `k − 1`.
    next_start: u32,
    tree_start: usize,
    primary_tree_open: bool,
    primary_reached: u32,
    done: bool,
}

impl BfsKernel {
    /// A kernel ready for `init`.
    pub fn new() -> Self {
        BfsKernel {
            gs: None,
            depth_slot: Slot::new(0),
            order_slot: Slot::new(0),
            depth: Vec::new(),
            frontier: Frontier::new(),
            next_start: 0,
            tree_start: 0,
            primary_tree_open: false,
            primary_reached: 0,
            done: false,
        }
    }

    /// The traversal result (after the run).
    pub fn into_result(self) -> BfsResult {
        BfsResult {
            depth: self.depth,
            order: self.frontier.into_items(),
            primary_reached: self.primary_reached,
        }
    }
}

impl Default for BfsKernel {
    fn default() -> Self {
        BfsKernel::new()
    }
}

impl<P: Probe> Kernel<P> for BfsKernel {
    fn name(&self) -> &'static str {
        "BFS"
    }

    fn init(&mut self, g: &Graph, _ctx: &KernelCtx, ex: &mut Exec<'_, P>) {
        let n = g.n() as usize;
        if n == 0 {
            self.done = true;
            return;
        }
        let gs = GraphSlots::new(&mut ex.probe, g);
        self.depth_slot = ex.probe.alloc(n, 4);
        self.order_slot = ex.probe.alloc(n, 4);
        self.depth = ex.pool.take_u32(n, u32::MAX);
        self.frontier = ex.pool.take_frontier(n);
        self.gs = Some(gs);
    }

    fn converged(&self) -> bool {
        self.done
    }

    fn iterate(&mut self, g: &Graph, ctx: &KernelCtx, ex: &mut Exec<'_, P>) {
        let gs = self.gs.expect("init before iterate");
        let n = g.n();

        if self.frontier.level_len() == 0 {
            // Seed the next tree: the context source first, then every
            // node in ascending id order.
            loop {
                if self.next_start > n {
                    self.done = true;
                    return;
                }
                let s = if self.next_start == 0 {
                    ctx.source_for(g)
                } else {
                    self.next_start - 1
                };
                self.next_start += 1;
                ex.probe.touch(self.depth_slot, s as usize);
                if self.depth[s as usize] == u32::MAX {
                    self.depth[s as usize] = 0;
                    self.tree_start = self.frontier.len();
                    self.primary_tree_open = self.tree_start == 0;
                    ex.probe.touch(self.order_slot, self.frontier.len());
                    self.frontier.seed(s);
                    ex.stats.frontier_pushes += 1;
                    ex.stats.note_frontier_peak(1);
                    return;
                }
            }
        }

        // Expand the current level.
        let (head, end) = self.frontier.bounds();
        let threads = ex.par_threads();
        if threads > 1 && end - head > 1 {
            // Parallel expansion: workers scan disjoint chunks of the
            // level read-only, collecting every target still unvisited at
            // scan time; the serial merge below applies first-occurrence-
            // wins in thread order. Chunk concatenation order equals the
            // serial edge-scan order, and the whole level shares one
            // depth, so the resulting visit order, depths, and push
            // counts are exactly the serial ones.
            let du = self.depth[self.frontier.item_at(head) as usize];
            let depth = &self.depth;
            let items = self.frontier.visited();
            let (out_off, out_tgt) = g.out_csr();
            let results = parallel::run_tasks(
                split_even(end - head, threads)
                    .into_iter()
                    .map(|(cs, ce)| {
                        move || {
                            let mut edges = 0u64;
                            let mut candidates = Vec::new();
                            for &u in &items[head + cs..head + ce] {
                                let a = out_off[u as usize] as usize;
                                let b = out_off[u as usize + 1] as usize;
                                edges += (b - a) as u64;
                                for &v in &out_tgt[a..b] {
                                    if depth[v as usize] == u32::MAX {
                                        candidates.push(v);
                                    }
                                }
                            }
                            (edges, candidates)
                        }
                    })
                    .collect(),
            );
            for (t, ((edges, candidates), busy)) in results.into_iter().enumerate() {
                ex.stats.edges_relaxed += edges;
                ex.stats.note_thread_busy(t, busy);
                for v in candidates {
                    if self.depth[v as usize] == u32::MAX {
                        self.depth[v as usize] = du + 1;
                        self.frontier.push(v);
                        ex.stats.frontier_pushes += 1;
                    }
                }
            }
        } else {
            for i in head..end {
                ex.probe.touch(self.order_slot, i);
                let u = self.frontier.item_at(i);
                let du = self.depth[u as usize];
                let (list, base) = gs.out_list(&mut ex.probe, g, u);
                for (k, &v) in list.iter().enumerate() {
                    ex.probe.touch(gs.out_tgt, base + k);
                    ex.probe.touch(self.depth_slot, v as usize);
                    ex.probe.op(1);
                    ex.stats.edges_relaxed += 1;
                    if self.depth[v as usize] == u32::MAX {
                        self.depth[v as usize] = du + 1;
                        ex.probe.touch(self.depth_slot, v as usize); // write
                        ex.probe.touch(self.order_slot, self.frontier.len());
                        self.frontier.push(v);
                        ex.stats.frontier_pushes += 1;
                    }
                }
            }
        }
        self.frontier.advance();
        ex.stats.note_frontier_peak(self.frontier.level_len());
        if self.frontier.level_len() == 0 && self.primary_tree_open {
            self.primary_reached = (self.frontier.len() - self.tree_start) as u32;
            self.primary_tree_open = false;
        }
    }

    fn finish(&mut self, _g: &Graph, _ctx: &KernelCtx, _ex: &mut Exec<'_, P>) -> u64 {
        // Depths from the primary source are invariant under relabeling
        // (BFS level sets do not depend on visit order within a level);
        // restart-tree depths are not, so only count the primary tree.
        self.frontier.visited()[..self.primary_reached as usize]
            .iter()
            .fold(u64::from(self.primary_reached), |acc, &u| {
                acc.wrapping_add(u64::from(self.depth[u as usize]))
            })
    }

    fn reclaim(&mut self, pool: &mut BufferPool) {
        pool.put_u32(std::mem::take(&mut self.depth));
        pool.put_frontier(std::mem::take(&mut self.frontier));
    }
}

/// Runs a full-coverage BFS starting at `source`.
pub fn bfs(g: &Graph, source: NodeId) -> BfsResult {
    bfs_with_plan(g, source, ExecPlan::Serial)
}

/// [`bfs`] under an explicit [`ExecPlan`]; depths, visit order, and
/// counters are identical to the serial run for every plan.
pub fn bfs_with_plan(g: &Graph, source: NodeId, plan: ExecPlan) -> BfsResult {
    let mut kernel = BfsKernel::new();
    let ctx = KernelCtx {
        source: Some(source),
        ..Default::default()
    };
    crate::run_unprobed(&mut kernel, g, &ctx, plan);
    kernel.into_result()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn depths_on_path() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let r = bfs(&g, 0);
        assert_eq!(r.depth, vec![0, 1, 2, 3]);
        assert_eq!(r.order, vec![0, 1, 2, 3]);
        assert_eq!(r.primary_reached, 4);
    }

    #[test]
    fn restarts_cover_disconnected_parts() {
        let g = Graph::from_edges(5, &[(0, 1), (3, 4)]);
        let r = bfs(&g, 0);
        assert_eq!(r.order.len(), 5);
        assert_eq!(r.primary_reached, 2);
        assert_eq!(r.depth[2], 0); // restart root
        assert_eq!(r.depth[4], 1);
    }

    #[test]
    fn single_node() {
        let r = bfs(&Graph::empty(1), 0);
        assert_eq!(r.depth, vec![0]);
        assert_eq!(r.primary_reached, 1);
    }

    #[test]
    fn parallel_visit_order_is_serial_order() {
        // Two nodes of a level share a target (3); the merge must keep
        // the serial first-encounter winner and push count.
        let g = Graph::from_edges(
            9,
            &[
                (0, 1),
                (0, 2),
                (1, 3),
                (2, 3),
                (1, 4),
                (2, 5),
                (3, 6),
                (4, 7),
                (5, 8),
            ],
        );
        let serial = bfs(&g, 0);
        for threads in [2, 3, 7] {
            let par = bfs_with_plan(&g, 0, ExecPlan::with_threads(threads));
            assert_eq!(serial, par, "threads = {threads}");
        }
    }

    #[test]
    fn parallel_on_degenerate_graphs() {
        for g in [Graph::empty(0), Graph::empty(1), Graph::empty(6)] {
            let serial = bfs(&g, 0);
            let par = bfs_with_plan(&g, 0, ExecPlan::with_threads(4));
            assert_eq!(serial, par);
        }
    }

    #[test]
    fn level_stats_on_diamond() {
        use crate::run_by_name;
        let g = Graph::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        let run = run_by_name(
            "BFS",
            &g,
            &KernelCtx {
                source: Some(0),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(run.stats.edges_relaxed, g.m());
        assert_eq!(run.stats.frontier_pushes, 4);
        assert_eq!(run.stats.frontier_peak, 2); // level {1, 2}
    }

    #[test]
    fn lexicographic_neighbor_order() {
        let g = Graph::from_edges(4, &[(0, 3), (0, 1), (0, 2)]);
        assert_eq!(bfs(&g, 0).order, vec![0, 1, 2, 3]);
    }

    #[test]
    fn source_respected() {
        let g = Graph::from_edges(3, &[(2, 0), (0, 1)]);
        let r = bfs(&g, 2);
        assert_eq!(r.depth, vec![1, 2, 0]);
        assert_eq!(r.primary_reached, 3);
    }

    #[test]
    fn empty_graph_checksum_is_zero() {
        let run = crate::run_by_name("BFS", &Graph::empty(0), &KernelCtx::default()).unwrap();
        assert_eq!(run.checksum, 0);
    }
}
