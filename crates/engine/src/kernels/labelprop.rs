//! LP — label propagation community detection (extension kernel).
//!
//! Raghavan et al.'s near-linear community detector: every node starts
//! with its own label and repeatedly adopts the most frequent label among
//! its (symmetrised) neighbours, until a pass changes nothing or the pass
//! cap is hit. The inner loop reads `label[v]` for every neighbour — the
//! same attribute-gather pattern as PageRank's pull, so it benefits from
//! node reordering the same way.
//!
//! Deterministic variant: nodes update in place in ascending id order,
//! and ties break toward the smallest label. One `iterate` is one pass.

use crate::mem::{BufferPool, GraphSlots, Probe, Slot};
use crate::{Exec, ExecPlan, Kernel, KernelCtx};
use gorder_graph::{Graph, NodeId};
use std::collections::HashMap;

/// Pass cap of the registered kernel.
pub const LP_MAX_PASSES: u32 = 20;

/// Result of label propagation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LabelPropResult {
    /// Final label per node (a representative node id).
    pub label: Vec<NodeId>,
    /// Passes executed (≤ the configured cap).
    pub iterations: u32,
}

impl LabelPropResult {
    /// Number of distinct communities.
    pub fn communities(&self) -> u32 {
        let mut labels: Vec<NodeId> = self.label.clone();
        labels.sort_unstable();
        labels.dedup();
        labels.len() as u32
    }
}

/// LP as an engine kernel; one `iterate` is one pass over all nodes.
pub struct LpKernel {
    gs: Option<GraphSlots>,
    label_slot: Slot,
    label: Vec<NodeId>,
    counts: HashMap<NodeId, u32>,
    max_passes: u32,
    passes: u32,
    done: bool,
}

impl LpKernel {
    /// A kernel capped at [`LP_MAX_PASSES`] passes.
    pub fn new() -> Self {
        LpKernel::with_max_passes(LP_MAX_PASSES)
    }

    /// A kernel capped at `max_passes` passes.
    pub fn with_max_passes(max_passes: u32) -> Self {
        LpKernel {
            gs: None,
            label_slot: Slot::new(0),
            label: Vec::new(),
            counts: HashMap::new(),
            max_passes,
            passes: 0,
            done: false,
        }
    }

    /// The labelling (after the run).
    pub fn into_result(self) -> LabelPropResult {
        LabelPropResult {
            label: self.label,
            iterations: self.passes,
        }
    }

    fn gather<P: Probe>(&mut self, slot: Slot, base: usize, list: &[NodeId], ex: &mut Exec<'_, P>) {
        for (k, &v) in list.iter().enumerate() {
            ex.probe.touch(slot, base + k);
            ex.probe.touch(self.label_slot, v as usize); // the gather
            ex.probe.op(1);
            *self.counts.entry(self.label[v as usize]).or_insert(0) += 1;
        }
        ex.stats.edges_relaxed += list.len() as u64;
    }
}

impl Default for LpKernel {
    fn default() -> Self {
        LpKernel::new()
    }
}

impl<P: Probe> Kernel<P> for LpKernel {
    fn name(&self) -> &'static str {
        "LP"
    }

    fn init(&mut self, g: &Graph, _ctx: &KernelCtx, ex: &mut Exec<'_, P>) {
        let gs = GraphSlots::new(&mut ex.probe, g);
        self.label_slot = ex.probe.alloc(g.n() as usize, 4);
        self.label = ex.pool.take_nodes(g.n() as usize);
        self.label.extend(g.nodes());
        self.done = self.max_passes == 0;
        self.gs = Some(gs);
    }

    fn converged(&self) -> bool {
        self.done
    }

    fn iterate(&mut self, g: &Graph, _ctx: &KernelCtx, ex: &mut Exec<'_, P>) {
        let gs = self.gs.expect("init before iterate");
        self.passes += 1;
        let mut changed = false;
        for u in g.nodes() {
            self.counts.clear();
            let (list, base) = gs.out_list(&mut ex.probe, g, u);
            self.gather(gs.out_tgt, base, list, ex);
            let (list, base) = gs.in_list(&mut ex.probe, g, u);
            self.gather(gs.in_tgt, base, list, ex);
            // most frequent label, ties to the smallest label value
            let Some((_, std::cmp::Reverse(best))) = self
                .counts
                .iter()
                .map(|(&l, &c)| (c, std::cmp::Reverse(l)))
                .max()
            else {
                continue;
            };
            ex.probe.touch(self.label_slot, u as usize);
            if best != self.label[u as usize] {
                self.label[u as usize] = best;
                changed = true;
            }
        }
        self.done = !changed || self.passes == self.max_passes;
    }

    fn finish(&mut self, _g: &Graph, _ctx: &KernelCtx, _ex: &mut Exec<'_, P>) -> u64 {
        // The community count is stable under relabeling; exact labels
        // are ids and are not.
        let mut labels = self.label.clone();
        labels.sort_unstable();
        labels.dedup();
        (labels.len() as u64) << 8 | u64::from(self.passes.min(255))
    }

    fn reclaim(&mut self, pool: &mut BufferPool) {
        pool.put_nodes(std::mem::take(&mut self.label));
    }
}

/// Runs label propagation for at most `max_passes` passes.
pub fn label_propagation(g: &Graph, max_passes: u32) -> LabelPropResult {
    let mut kernel = LpKernel::with_max_passes(max_passes);
    crate::run_unprobed(&mut kernel, g, &KernelCtx::default(), ExecPlan::Serial);
    kernel.into_result()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gorder_graph::gen::stochastic_block_model;

    fn clique_edges(base: u32, k: u32) -> Vec<(NodeId, NodeId)> {
        (0..k)
            .flat_map(|a| {
                (0..k)
                    .filter(move |&b| b != a)
                    .map(move |b| (base + a, base + b))
            })
            .collect()
    }

    #[test]
    fn clique_converges_to_one_label() {
        let g = Graph::from_edges(5, &clique_edges(0, 5));
        let r = label_propagation(&g, 20);
        assert!(r.label.iter().all(|&l| l == r.label[0]));
        assert_eq!(r.communities(), 1);
        let run = crate::run_by_name("LP", &g, &KernelCtx::default()).unwrap();
        assert_eq!(run.checksum >> 8, 1, "one community");
        assert_eq!(run.checksum & 0xff, run.stats.iterations);
        assert_eq!(run.stats.edges_relaxed, 2 * g.m() * run.stats.iterations);
    }

    #[test]
    fn isolated_nodes_keep_their_labels() {
        let g = Graph::empty(3);
        let r = label_propagation(&g, 5);
        assert_eq!(r.label, vec![0, 1, 2]);
        assert_eq!(r.communities(), 3);
        assert_eq!(r.iterations, 1, "no changes → stop after one pass");
    }

    #[test]
    fn empty_graph_makes_one_pass() {
        let run = crate::run_by_name("LP", &Graph::empty(0), &KernelCtx::default()).unwrap();
        assert_eq!(run.checksum, 1);
    }

    #[test]
    fn two_cliques_with_bridge_stay_separate() {
        let mut edges = clique_edges(0, 5);
        edges.extend(clique_edges(5, 5));
        edges.push((0, 5)); // single weak bridge
        let g = Graph::from_edges(10, &edges);
        let r = label_propagation(&g, 30);
        assert_eq!(r.communities(), 2);
        assert_ne!(r.label[0], r.label[5]);
    }

    #[test]
    fn finds_planted_blocks() {
        let g = stochastic_block_model(200, 4, 0.4, 0.002, 7);
        let r = label_propagation(&g, 30);
        // most nodes of block 0 should share a label
        let mut freq: HashMap<NodeId, u32> = HashMap::new();
        for u in 0..50 {
            *freq.entry(r.label[u]).or_insert(0) += 1;
        }
        let dominant = freq.values().copied().max().unwrap();
        assert!(
            dominant >= 40,
            "block 0 should be mostly one community: {dominant}/50"
        );
        assert!(r.communities() <= 20);
    }

    #[test]
    fn iteration_cap_respected() {
        let g = stochastic_block_model(100, 2, 0.3, 0.05, 1);
        let r = label_propagation(&g, 2);
        assert!(r.iterations <= 2);
        assert_eq!(label_propagation(&g, 0).iterations, 0);
    }
}
