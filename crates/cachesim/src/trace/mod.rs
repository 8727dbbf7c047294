//! Memory-access replays of the engine's kernels.
//!
//! Every kernel — the paper's nine and the four extensions (WCC, Tri,
//! LP, BC; DESIGN.md §8) — is defined once, in `gorder-engine`. This
//! module plugs a [`TracerProbe`] into it, so the *same* kernel code that
//! produces wall-clock numbers also drives the cache model: same loops,
//! same tie-breaks, same checksum. CSR arrays and property arrays are
//! laid out by the tracer's bump allocator exactly as consecutively
//! allocated `Vec`s would be.
//!
//! Instruction fetch and stack spill traffic are not modelled; the paper's
//! counters likewise focus on data cache (`L1-dcache-loads`, `LLC-loads`).

use crate::tracer::{Tracer, VArray};
use gorder_engine::{KernelCtx, KernelStats, Probe, Slot};
use gorder_graph::Graph;

/// An engine [`Probe`] that forwards every kernel memory access into a
/// [`Tracer`]'s cache hierarchy.
///
/// Each [`Probe::alloc`] becomes a tracer allocation (line-aligned, laid
/// out in call order) and each [`Probe::touch`] a simulated load at the
/// element's address. Touch indices are clamped to the registered array
/// bounds: kernels occasionally probe one-past-the-end positions (heap
/// sift paths on a just-emptied heap, sentinel reads on zero-length
/// arrays), and the clamp maps those to the nearest real line instead of
/// tripping the tracer's bounds check.
pub struct TracerProbe<'t> {
    tracer: &'t mut Tracer,
    slots: Vec<VArray>,
}

impl<'t> TracerProbe<'t> {
    /// Wraps `tracer`; arrays registered through the probe are allocated
    /// in the tracer's address space.
    pub fn new(tracer: &'t mut Tracer) -> Self {
        TracerProbe {
            tracer,
            slots: Vec::new(),
        }
    }
}

impl Probe for TracerProbe<'_> {
    fn alloc(&mut self, len: usize, elem_bytes: u64) -> Slot {
        let slot = Slot::new(self.slots.len() as u32);
        self.slots.push(self.tracer.alloc(len, elem_bytes));
        slot
    }

    fn touch(&mut self, slot: Slot, i: usize) {
        let arr = &self.slots[slot.index() as usize];
        let clamped = i.min((arr.len() as usize).saturating_sub(1));
        self.tracer.touch(arr, clamped);
    }

    fn op(&mut self, n: u64) {
        self.tracer.op(n);
    }
}

/// Replays PR (power-iteration PageRank) through the cache model — the
/// one kernel the figure binaries replay by itself.
pub fn pagerank(g: &Graph, t: &mut Tracer, ctx: &KernelCtx) -> u64 {
    replay("PR", g, t, ctx).expect("PR is an engine kernel")
}

/// Replays the engine kernel labelled `name` (case-insensitive, any of
/// the 13) through the cache model, returning the checksum and the
/// kernel's statistics, or `None` for an unknown label.
pub fn replay_with_stats(
    name: &str,
    g: &Graph,
    t: &mut Tracer,
    ctx: &KernelCtx,
) -> Option<(u64, KernelStats)> {
    let run = gorder_engine::run_probed(name, g, ctx, TracerProbe::new(t))?;
    Some((run.checksum, run.stats))
}

/// [`replay_with_stats`] without the statistics.
pub fn replay(name: &str, g: &Graph, t: &mut Tracer, ctx: &KernelCtx) -> Option<u64> {
    replay_with_stats(name, g, t, ctx).map(|(checksum, _)| checksum)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchy::CacheHierarchy;
    use gorder_graph::NodeId;

    fn tracer() -> Tracer {
        Tracer::new(CacheHierarchy::xeon_e5())
    }

    fn g() -> Graph {
        Graph::from_edges(6, &[(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (4, 0), (5, 3)])
    }

    /// A [`TracerProbe`] that reads the tracer's counters and reuse
    /// histogram at pseudo-random touches, mid-batch and in either order,
    /// while the kernel runs on. Each read must cover every touch so far:
    /// `refs` counts them all, and the histogram holds one observation per
    /// touch except each distinct line's first.
    struct Reading<'t> {
        inner: TracerProbe<'t>,
        touched: u64,
        /// Lines touched so far (the scaled-down hierarchy's 64 B lines).
        lines: std::collections::HashSet<u64>,
        next_read: u64,
        state: u64,
    }

    impl Probe for Reading<'_> {
        fn alloc(&mut self, len: usize, elem_bytes: u64) -> Slot {
            self.inner.alloc(len, elem_bytes)
        }

        fn touch(&mut self, slot: Slot, i: usize) {
            self.inner.touch(slot, i);
            let arr = &self.inner.slots[slot.index() as usize];
            let addr = arr.addr(i.min((arr.len() as usize).saturating_sub(1)));
            self.lines.insert(addr >> 6);
            self.touched += 1;
            if self.touched < self.next_read {
                return;
            }
            self.state = self
                .state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            self.next_read += 1 + (self.state >> 33) % 9000;
            let tracer = &mut *self.inner.tracer;
            let histogram_first = self.state >> 63 == 1;
            let mut warm = 0;
            if histogram_first {
                warm = tracer.reuse_histogram().expect("tracking is on").total();
            }
            assert_eq!(tracer.counters().refs, self.touched, "refs mid-replay");
            if !histogram_first {
                warm = tracer.reuse_histogram().expect("tracking is on").total();
            }
            assert_eq!(
                warm + self.lines.len() as u64,
                self.touched,
                "reuse mid-replay"
            );
        }

        fn op(&mut self, n: u64) {
            self.inner.op(n);
        }
    }

    #[test]
    fn reads_mid_replay_leave_the_counters_unchanged() {
        // 3000 nodes, 24000 pseudo-random edges: PR(3) and BFS each make
        // over 50 000 touches, many pending buffers' worth
        let mut state = 7u64;
        let edges: Vec<(NodeId, NodeId)> = (0..24_000)
            .map(|_| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1);
                (
                    ((state >> 20) % 3000) as NodeId,
                    ((state >> 44) % 3000) as NodeId,
                )
            })
            .collect();
        let g = Graph::from_edges(3000, &edges);
        let ctx = KernelCtx {
            pr_iterations: 3,
            ..Default::default()
        };
        let fresh = || {
            let mut t = Tracer::new(CacheHierarchy::new(&crate::HierarchyConfig::scaled_down()));
            t.enable_reuse_tracking();
            t
        };
        for name in ["PR", "BFS"] {
            let mut plain = fresh();
            let expected = gorder_engine::run_probed(name, &g, &ctx, TracerProbe::new(&mut plain))
                .unwrap()
                .checksum;
            let mut read = fresh();
            let probe = Reading {
                inner: TracerProbe::new(&mut read),
                touched: 0,
                lines: Default::default(),
                next_read: 1,
                state: 1,
            };
            let checksum = gorder_engine::run_probed(name, &g, &ctx, probe)
                .unwrap()
                .checksum;
            assert_eq!(checksum, expected, "{name}");
            let want = plain.counters();
            assert!(
                want.refs > 50_000 && want.reuse_total > 0,
                "{name}: {want:?}"
            );
            assert_eq!(read.counters(), want, "{name}");
            assert_eq!(read.stats(), plain.stats(), "{name}");
        }
    }

    #[test]
    fn replay_dispatches_extensions() {
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 0), (3, 4)]);
        let ctx = KernelCtx::default();
        for name in gorder_engine::EXTENSION_KERNELS {
            let mut t = tracer();
            assert!(replay(name, &g, &mut t, &ctx).is_some(), "{name}");
            assert!(t.stats().l1_refs > 0, "{name} produced no references");
        }
    }

    #[test]
    fn replay_dispatches_all_nine() {
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (0, 3)]);
        let ctx = KernelCtx {
            pr_iterations: 3,
            diameter_samples: 2,
            ..Default::default()
        };
        for name in gorder_engine::kernel_names() {
            let mut t = tracer();
            assert!(replay(name, &g, &mut t, &ctx).is_some(), "{name}");
            assert!(t.stats().l1_refs > 0, "{name} produced no references");
        }
        let mut t = tracer();
        assert!(replay("nope", &g, &mut t, &ctx).is_none());
    }

    #[test]
    fn replay_with_stats_reports_engine_counters() {
        let g = g();
        let ctx = KernelCtx {
            pr_iterations: 3,
            diameter_samples: 2,
            ..Default::default()
        };
        let names = gorder_engine::kernel_names();
        for name in names.into_iter().chain(gorder_engine::EXTENSION_KERNELS) {
            let mut t = tracer();
            let (_, stats) = replay_with_stats(name, &g, &mut t, &ctx).unwrap();
            assert!(stats.iterations > 0, "{name} reported no iterations");
            assert!(stats.edges_relaxed > 0, "{name} relaxed no edges");
            assert_eq!(stats.threads_used, 1, "{name} traces serially");
        }
    }

    #[test]
    fn empty_graph_replays() {
        let g = Graph::empty(0);
        let ctx = KernelCtx::default();
        let names = gorder_engine::kernel_names();
        for name in names.into_iter().chain(gorder_engine::EXTENSION_KERNELS) {
            let mut t = tracer();
            assert!(replay(name, &g, &mut t, &ctx).is_some(), "{name}");
        }
    }

    #[test]
    fn nq_checksum_value() {
        // recompute by hand: sum over u of Σ out_degree(v)
        let gg = g();
        let expected: u64 = gg
            .nodes()
            .flat_map(|u| {
                gg.out_neighbors(u)
                    .iter()
                    .map(|&v| u64::from(gg.out_degree(v)))
            })
            .sum();
        let mut t = tracer();
        assert_eq!(
            replay("NQ", &gg, &mut t, &KernelCtx::default()).unwrap(),
            expected
        );
    }

    #[test]
    fn bfs_checksum_path() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let mut t = tracer();
        let ctx = KernelCtx {
            source: Some(0),
            ..Default::default()
        };
        // primary_reached = 4, depths sum = 0+1+2+3 = 6 → 10
        assert_eq!(replay("BFS", &g, &mut t, &ctx).unwrap(), 10);
    }

    #[test]
    fn dfs_checksum_matches_formula() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let mut t = tracer();
        let ctx = KernelCtx {
            source: Some(0),
            ..Default::default()
        };
        let expected = 4u64.wrapping_mul(0x9E3779B97F4A7C15) ^ 3;
        assert_eq!(replay("DFS", &g, &mut t, &ctx).unwrap(), expected);
    }

    #[test]
    fn scc_checksum_two_components() {
        // 3-cycle + 2-cycle: count 2, Σ size² = 9 + 4 → 15
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 3)]);
        let mut t = tracer();
        assert_eq!(
            replay("SCC", &g, &mut t, &KernelCtx::default()).unwrap(),
            15
        );
    }

    #[test]
    fn traversals_touch_every_edge() {
        let g = Graph::from_edges(5, &[(0, 1), (0, 2), (1, 3), (3, 4), (2, 4)]);
        let ctx = KernelCtx::default();
        let mut t = tracer();
        replay("BFS", &g, &mut t, &ctx).unwrap();
        // at least one target read per edge
        assert!(t.stats().l1_refs >= g.m());
    }

    #[test]
    fn sp_eccentricity_path() {
        let gg = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let mut t = tracer();
        let ctx = KernelCtx {
            source: Some(0),
            ..Default::default()
        };
        // Σ (dist + 1) = (0+1)+(1+1)+(2+1)+(3+1) = 10
        assert_eq!(replay("SP", &gg, &mut t, &ctx).unwrap(), 10);
    }

    #[test]
    fn diam_on_cycle() {
        let edges: Vec<(NodeId, NodeId)> = (0..8u32).map(|u| (u, (u + 1) % 8)).collect();
        let gg = Graph::from_edges(8, &edges);
        let mut t = tracer();
        let ctx = KernelCtx {
            diameter_samples: 3,
            ..Default::default()
        };
        assert_eq!(replay("Diam", &gg, &mut t, &ctx).unwrap(), 7);
    }

    #[test]
    fn pagerank_mass_checksum() {
        let mut t = tracer();
        let ctx = KernelCtx {
            pr_iterations: 20,
            ..Default::default()
        };
        // mass conserved → checksum ≈ 1e6
        let c = pagerank(&g(), &mut t, &ctx);
        assert_eq!(c, 1_000_000);
    }

    #[test]
    fn pr_reference_counts_scale_with_iterations() {
        let gg = g();
        let mut t1 = tracer();
        pagerank(
            &gg,
            &mut t1,
            &KernelCtx {
                pr_iterations: 1,
                ..Default::default()
            },
        );
        let mut t10 = tracer();
        pagerank(
            &gg,
            &mut t10,
            &KernelCtx {
                pr_iterations: 10,
                ..Default::default()
            },
        );
        assert!(t10.stats().l1_refs > 5 * t1.stats().l1_refs);
    }

    #[test]
    fn ds_star_is_one() {
        let g = Graph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        let mut t = tracer();
        assert_eq!(replay("DS", &g, &mut t, &KernelCtx::default()).unwrap(), 1);
    }

    #[test]
    fn ds_isolated_count() {
        let g = Graph::empty(4);
        let mut t = tracer();
        assert_eq!(replay("DS", &g, &mut t, &KernelCtx::default()).unwrap(), 4);
    }

    #[test]
    fn kcore_triangle_checksum() {
        // all three nodes have core 2 → Σ core² = 12
        let g = Graph::from_edges(3, &[(0, 1), (1, 2), (2, 0)]);
        let mut t = tracer();
        assert_eq!(
            replay("Kcore", &g, &mut t, &KernelCtx::default()).unwrap(),
            12
        );
    }

    #[test]
    fn kcore_empty() {
        let mut t = tracer();
        assert_eq!(
            replay("Kcore", &Graph::empty(0), &mut t, &KernelCtx::default()).unwrap(),
            0
        );
    }
}
