//! WCC — weakly connected components (extension kernel).
//!
//! Not part of the paper's nine-kernel suite; included because the
//! paper's discussion argues Gorder "could speed up other graph
//! algorithms as well". A BFS over the symmetrised view: roots are taken
//! in ascending id order, and each root's queue scans out-neighbours
//! then in-neighbours in CSR order — frontier-local accesses that are
//! ordering-sensitive like the paper's BFS. One `iterate` finds the next
//! unlabelled root and labels its whole component.

use crate::mem::{BufferPool, GraphSlots, Probe, Slot};
use crate::{Exec, ExecPlan, Kernel, KernelCtx};
use gorder_graph::{Graph, NodeId};

/// Result of a WCC decomposition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WccResult {
    /// Dense component id per node (ids in root order).
    pub component: Vec<u32>,
    /// Size of each component.
    pub sizes: Vec<u32>,
}

impl WccResult {
    /// Number of weakly connected components.
    pub fn count(&self) -> u32 {
        self.sizes.len() as u32
    }

    /// Size of the largest component.
    pub fn largest(&self) -> u32 {
        self.sizes.iter().copied().max().unwrap_or(0)
    }
}

/// WCC as an engine kernel; one `iterate` labels one component.
pub struct WccKernel {
    gs: Option<GraphSlots>,
    comp_slot: Slot,
    queue_slot: Slot,
    component: Vec<u32>,
    sizes: Vec<u32>,
    queue: Vec<NodeId>,
    next_root: u32,
    done: bool,
}

impl WccKernel {
    /// A kernel ready for `init`.
    pub fn new() -> Self {
        WccKernel {
            gs: None,
            comp_slot: Slot::new(0),
            queue_slot: Slot::new(0),
            component: Vec::new(),
            sizes: Vec::new(),
            queue: Vec::new(),
            next_root: 0,
            done: false,
        }
    }

    /// The decomposition (after the run).
    pub fn into_result(self) -> WccResult {
        WccResult {
            component: self.component,
            sizes: self.sizes,
        }
    }

    /// Labels `v` with `id` and queues it, unless it already has a label.
    fn visit<P: Probe>(&mut self, v: NodeId, id: u32, ex: &mut Exec<'_, P>) {
        ex.probe.touch(self.comp_slot, v as usize);
        ex.stats.edges_relaxed += 1;
        if self.component[v as usize] == u32::MAX {
            self.component[v as usize] = id;
            ex.probe.touch(self.comp_slot, v as usize);
            let last = self.component.len() - 1;
            ex.probe.touch(self.queue_slot, self.queue.len().min(last));
            self.queue.push(v);
            ex.stats.frontier_pushes += 1;
        }
    }
}

impl Default for WccKernel {
    fn default() -> Self {
        WccKernel::new()
    }
}

impl<P: Probe> Kernel<P> for WccKernel {
    fn name(&self) -> &'static str {
        "WCC"
    }

    fn init(&mut self, g: &Graph, _ctx: &KernelCtx, ex: &mut Exec<'_, P>) {
        let n = g.n() as usize;
        let gs = GraphSlots::new(&mut ex.probe, g);
        self.comp_slot = ex.probe.alloc(n, 4);
        self.queue_slot = ex.probe.alloc(n.max(1), 4);
        self.component = ex.pool.take_u32(n, u32::MAX);
        self.sizes = ex.pool.take_u32(0, 0);
        self.queue = ex.pool.take_nodes(n);
        self.gs = Some(gs);
    }

    fn converged(&self) -> bool {
        self.done
    }

    fn iterate(&mut self, g: &Graph, _ctx: &KernelCtx, ex: &mut Exec<'_, P>) {
        let gs = self.gs.expect("init before iterate");
        let root = loop {
            if self.next_root == g.n() {
                self.done = true;
                return;
            }
            let u = self.next_root;
            self.next_root += 1;
            ex.probe.touch(self.comp_slot, u as usize);
            if self.component[u as usize] == u32::MAX {
                break u;
            }
        };
        let id = self.sizes.len() as u32;
        self.component[root as usize] = id;
        self.queue.clear();
        self.queue.push(root);
        ex.probe.touch(self.queue_slot, 0);
        ex.stats.frontier_pushes += 1;
        let mut head = 0;
        while head < self.queue.len() {
            ex.probe.touch(self.queue_slot, head);
            let u = self.queue[head];
            head += 1;
            let (list, base) = gs.out_list(&mut ex.probe, g, u);
            for (k, &v) in list.iter().enumerate() {
                ex.probe.touch(gs.out_tgt, base + k);
                self.visit(v, id, ex);
            }
            let (list, base) = gs.in_list(&mut ex.probe, g, u);
            for (k, &v) in list.iter().enumerate() {
                ex.probe.touch(gs.in_tgt, base + k);
                self.visit(v, id, ex);
            }
        }
        ex.stats.note_frontier_peak(head);
        self.sizes.push(head as u32);
    }

    fn finish(&mut self, _g: &Graph, _ctx: &KernelCtx, _ex: &mut Exec<'_, P>) -> u64 {
        // Component count plus Σ size², both invariant under relabeling.
        self.sizes.iter().fold(self.sizes.len() as u64, |acc, &s| {
            acc.wrapping_add(u64::from(s) * u64::from(s))
        })
    }

    fn reclaim(&mut self, pool: &mut BufferPool) {
        pool.put_u32(std::mem::take(&mut self.component));
        pool.put_u32(std::mem::take(&mut self.sizes));
        pool.put_nodes(std::mem::take(&mut self.queue));
    }
}

/// Decomposes `g` into weakly connected components.
pub fn wcc(g: &Graph) -> WccResult {
    let mut kernel = WccKernel::new();
    crate::run_unprobed(&mut kernel, g, &KernelCtx::default(), ExecPlan::Serial);
    kernel.into_result()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gorder_graph::gen::erdos_renyi;

    #[test]
    fn direction_is_ignored() {
        // 0 -> 1 <- 2: weakly one component
        let g = Graph::from_edges(3, &[(0, 1), (2, 1)]);
        let r = wcc(&g);
        assert_eq!(r.count(), 1);
        assert_eq!(r.largest(), 3);
    }

    #[test]
    fn separate_components_counted() {
        let g = Graph::from_edges(5, &[(0, 1), (2, 3)]);
        let r = wcc(&g);
        assert_eq!(r.count(), 3); // {0,1}, {2,3}, {4}
        let mut sizes = r.sizes.clone();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![1, 2, 2]);
    }

    #[test]
    fn checksum_counts_components_and_squared_sizes() {
        // components {0,1,2} and {3,4}: 2 + 9 + 4 = 15
        let g = Graph::from_edges(5, &[(0, 1), (2, 1), (3, 4)]);
        let run = crate::run_by_name("WCC", &g, &KernelCtx::default()).unwrap();
        assert_eq!(run.checksum, 15);
        // one iterate per component plus the final empty root scan; every
        // adjacency entry is read once from each side
        assert_eq!(run.stats.iterations, 3);
        assert_eq!(run.stats.edges_relaxed, 2 * g.m());
        assert_eq!(run.stats.frontier_pushes, 5);
        assert_eq!(run.stats.frontier_peak, 3);
    }

    #[test]
    fn empty_and_isolated() {
        assert_eq!(wcc(&Graph::empty(0)).count(), 0);
        let r = wcc(&Graph::empty(4));
        assert_eq!(r.count(), 4);
        assert_eq!(r.largest(), 1);
    }

    #[test]
    fn wcc_at_least_as_coarse_as_scc() {
        let g = erdos_renyi(150, 400, 3);
        let w = wcc(&g);
        let s = crate::kernels::scc::scc(&g);
        assert!(w.count() <= s.count());
        // nodes in the same SCC are necessarily in the same WCC
        for u in g.nodes() {
            for v in g.nodes() {
                if s.component[u as usize] == s.component[v as usize] {
                    assert_eq!(w.component[u as usize], w.component[v as usize]);
                }
            }
        }
    }
}
