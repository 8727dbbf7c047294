//! Per-algorithm memory-access replayers, driven by the engine.
//!
//! The nine paper kernels live in `gorder-engine`; this module plugs a
//! [`TracerProbe`] into them, so the *same* kernel code that produces
//! wall-clock numbers also drives the cache model — same loops, same
//! tie-breaks, same checksum (the test suites assert checksum equality
//! against `gorder-algos`, which wraps the identical kernels). CSR
//! arrays and property arrays are laid out by the tracer's bump
//! allocator exactly as consecutively allocated `Vec`s would be.
//!
//! The extension replayers (WCC, Tri, LP, BC — DESIGN.md §8) predate the
//! engine and keep their hand-rolled form in the private `extension`
//! submodule (re-exported here as [`wcc`], [`triangles`], [`labelprop`],
//! [`betweenness`]).
//!
//! Instruction fetch and stack spill traffic are not modelled; the paper's
//! counters likewise focus on data cache (`L1-dcache-loads`, `LLC-loads`).

mod extension;

pub use extension::{betweenness, labelprop, triangles, wcc};

/// Run parameters — the engine's context, shared with `gorder-algos`
/// (which re-exports it as `RunCtx`). No longer duplicated per crate.
pub use gorder_engine::KernelCtx as TraceCtx;

use crate::tracer::{Tracer, VArray};
use gorder_engine::{KernelStats, Probe, Slot};
use gorder_graph::{Graph, NodeId};

/// The algorithm labels with replayers, in paper order.
pub const TRACED_ALGOS: [&str; 9] = ["NQ", "BFS", "DFS", "SCC", "SP", "PR", "DS", "Kcore", "Diam"];

/// The extension algorithms with replayers (DESIGN.md §8).
pub const TRACED_EXTENSIONS: [&str; 4] = ["WCC", "Tri", "LP", "BC"];

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

fn traced(name: &str, g: &Graph, t: &mut Tracer, ctx: &TraceCtx) -> u64 {
    gorder_engine::run_probed(name, g, ctx, TracerProbe::new(t))
        .unwrap_or_else(|| panic!("{name} is a registered engine kernel"))
        .checksum
}

/// Replays NQ (neighbour query) through the cache model.
pub fn nq(g: &Graph, t: &mut Tracer) -> u64 {
    traced("NQ", g, t, &TraceCtx::default())
}

/// Replays BFS through the cache model.
pub fn bfs(g: &Graph, t: &mut Tracer, ctx: &TraceCtx) -> u64 {
    traced("BFS", g, t, ctx)
}

/// Replays DFS through the cache model.
pub fn dfs(g: &Graph, t: &mut Tracer, ctx: &TraceCtx) -> u64 {
    traced("DFS", g, t, ctx)
}

/// Replays SCC (Tarjan) through the cache model.
pub fn scc(g: &Graph, t: &mut Tracer) -> u64 {
    traced("SCC", g, t, &TraceCtx::default())
}

/// Replays SP (round-based Bellman–Ford) through the cache model.
pub fn sp(g: &Graph, t: &mut Tracer, ctx: &TraceCtx) -> u64 {
    traced("SP", g, t, ctx)
}

/// Replays PR (power-iteration PageRank) through the cache model.
pub fn pagerank(g: &Graph, t: &mut Tracer, ctx: &TraceCtx) -> u64 {
    traced("PR", g, t, ctx)
}

/// Replays DS (greedy dominating set) through the cache model.
pub fn ds(g: &Graph, t: &mut Tracer) -> u64 {
    traced("DS", g, t, &TraceCtx::default())
}

/// Replays Kcore (bucket-queue peeling) through the cache model.
pub fn kcore(g: &Graph, t: &mut Tracer) -> u64 {
    traced("Kcore", g, t, &TraceCtx::default())
}

/// Replays Diam (sampled eccentricities) through the cache model.
pub fn diam(g: &Graph, t: &mut Tracer, ctx: &TraceCtx) -> u64 {
    traced("Diam", g, t, ctx)
}

/// Dispatches a replayer by its paper label, returning the checksum and
/// the engine's per-kernel statistics. Extension replayers are not
/// engine kernels and report [`KernelStats::default`]. Returns `None`
/// for an unknown label.
pub fn replay_with_stats(
    name: &str,
    g: &Graph,
    t: &mut Tracer,
    ctx: &TraceCtx,
) -> Option<(u64, KernelStats)> {
    if gorder_engine::is_kernel(name) {
        let run = gorder_engine::run_probed(name, g, ctx, TracerProbe::new(t))?;
        return Some((run.checksum, run.stats));
    }
    let checksum = match name {
        "WCC" => wcc(g, t),
        "Tri" => triangles(g, t),
        "LP" => labelprop(g, t),
        "BC" => betweenness(g, t, ctx),
        _ => return None,
    };
    Some((checksum, KernelStats::default()))
}

/// Dispatches a replayer by its paper label. Returns the checksum, or
/// `None` for an unknown label.
pub fn replay(name: &str, g: &Graph, t: &mut Tracer, ctx: &TraceCtx) -> Option<u64> {
    replay_with_stats(name, g, t, ctx).map(|(checksum, _)| checksum)
}

/// The four CSR arrays of a graph, allocated in the tracer's address
/// space. Offsets are `u64` (8 B), targets `u32` (4 B), matching
/// `gorder_graph::Graph`'s real layout. Used by the hand-rolled
/// extension replayers; the nine paper kernels get the equivalent via
/// `gorder_engine::GraphSlots` + [`TracerProbe`].
pub(crate) struct GraphArrays {
    pub out_off: VArray,
    pub out_tgt: VArray,
    pub in_off: VArray,
    pub in_tgt: VArray,
}

impl GraphArrays {
    pub fn new(t: &mut Tracer, g: &Graph) -> Self {
        let n = g.n() as usize;
        let m = g.m() as usize;
        GraphArrays {
            out_off: t.alloc(n + 1, 8),
            out_tgt: t.alloc(m, 4),
            in_off: t.alloc(n + 1, 8),
            in_tgt: t.alloc(m, 4),
        }
    }

    /// Touches the offset pair bounding `u`'s out-list and returns the
    /// list plus its global CSR base index.
    pub fn out_list<'g>(&self, t: &mut Tracer, g: &'g Graph, u: NodeId) -> (&'g [NodeId], usize) {
        t.touch(&self.out_off, u as usize);
        t.touch(&self.out_off, u as usize + 1);
        let (off, _) = g.out_csr();
        (g.out_neighbors(u), off[u as usize] as usize)
    }

    /// Same for the in-list.
    pub fn in_list<'g>(&self, t: &mut Tracer, g: &'g Graph, u: NodeId) -> (&'g [NodeId], usize) {
        t.touch(&self.in_off, u as usize);
        t.touch(&self.in_off, u as usize + 1);
        let (off, _) = g.in_csr();
        (g.in_neighbors(u), off[u as usize] as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchy::CacheHierarchy;

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
        let ctx = TraceCtx {
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
        let ctx = TraceCtx::default();
        for name in TRACED_EXTENSIONS {
            let mut t = tracer();
            assert!(replay(name, &g, &mut t, &ctx).is_some(), "{name}");
        }
    }

    #[test]
    fn replay_dispatches_all_nine() {
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (0, 3)]);
        let ctx = TraceCtx {
            pr_iterations: 3,
            diameter_samples: 2,
            ..Default::default()
        };
        for name in TRACED_ALGOS {
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
        let ctx = TraceCtx {
            pr_iterations: 3,
            diameter_samples: 2,
            ..Default::default()
        };
        for name in TRACED_ALGOS {
            let mut t = tracer();
            let (_, stats) = replay_with_stats(name, &g, &mut t, &ctx).unwrap();
            assert!(stats.iterations > 0, "{name} reported no iterations");
        }
        // extensions dispatch but carry default stats
        let mut t = tracer();
        let (_, stats) = replay_with_stats("WCC", &g, &mut t, &ctx).unwrap();
        assert_eq!(stats.iterations, 0);
    }

    #[test]
    fn empty_graph_replays() {
        let g = Graph::empty(0);
        let ctx = TraceCtx::default();
        for name in TRACED_ALGOS {
            let mut t = tracer();
            replay(name, &g, &mut t, &ctx);
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
        assert_eq!(nq(&gg, &mut t), expected);
    }

    #[test]
    fn bfs_checksum_path() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let mut t = tracer();
        let ctx = TraceCtx {
            source: Some(0),
            ..Default::default()
        };
        // primary_reached = 4, depths sum = 0+1+2+3 = 6 → 10
        assert_eq!(bfs(&g, &mut t, &ctx), 10);
    }

    #[test]
    fn dfs_checksum_matches_formula() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let mut t = tracer();
        let ctx = TraceCtx {
            source: Some(0),
            ..Default::default()
        };
        let expected = 4u64.wrapping_mul(0x9E3779B97F4A7C15) ^ 3;
        assert_eq!(dfs(&g, &mut t, &ctx), expected);
    }

    #[test]
    fn scc_checksum_two_components() {
        // 3-cycle + 2-cycle: count 2, Σ size² = 9 + 4 → 15
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 3)]);
        let mut t = tracer();
        assert_eq!(scc(&g, &mut t), 15);
    }

    #[test]
    fn traversals_touch_every_edge() {
        let g = Graph::from_edges(5, &[(0, 1), (0, 2), (1, 3), (3, 4), (2, 4)]);
        let ctx = TraceCtx::default();
        let mut t = tracer();
        bfs(&g, &mut t, &ctx);
        // at least one target read per edge
        assert!(t.stats().l1_refs >= g.m());
    }

    #[test]
    fn sp_eccentricity_path() {
        let gg = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let mut t = tracer();
        let ctx = TraceCtx {
            source: Some(0),
            ..Default::default()
        };
        // Σ (dist + 1) = (0+1)+(1+1)+(2+1)+(3+1) = 10
        assert_eq!(sp(&gg, &mut t, &ctx), 10);
    }

    #[test]
    fn diam_on_cycle() {
        let edges: Vec<(NodeId, NodeId)> = (0..8u32).map(|u| (u, (u + 1) % 8)).collect();
        let gg = Graph::from_edges(8, &edges);
        let mut t = tracer();
        let ctx = TraceCtx {
            diameter_samples: 3,
            ..Default::default()
        };
        assert_eq!(diam(&gg, &mut t, &ctx), 7);
    }

    #[test]
    fn pagerank_mass_checksum() {
        let mut t = tracer();
        let ctx = TraceCtx {
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
            &TraceCtx {
                pr_iterations: 1,
                ..Default::default()
            },
        );
        let mut t10 = tracer();
        pagerank(
            &gg,
            &mut t10,
            &TraceCtx {
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
        assert_eq!(ds(&g, &mut t), 1);
    }

    #[test]
    fn ds_isolated_count() {
        let g = Graph::empty(4);
        let mut t = tracer();
        assert_eq!(ds(&g, &mut t), 4);
    }

    #[test]
    fn kcore_triangle_checksum() {
        // all three nodes have core 2 → Σ core² = 12
        let g = Graph::from_edges(3, &[(0, 1), (1, 2), (2, 0)]);
        let mut t = tracer();
        assert_eq!(kcore(&g, &mut t), 12);
    }

    #[test]
    fn kcore_empty() {
        let mut t = tracer();
        assert_eq!(kcore(&Graph::empty(0), &mut t), 0);
    }
}
