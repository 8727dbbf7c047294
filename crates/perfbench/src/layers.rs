//! Timed calls into each layer's public functions. Each wrapper opens a
//! span named after the metric it feeds (`<span>_s`), calls the layer,
//! and records the layer's own counters and output checksums.

use std::path::Path;

use gorder_cachesim::trace::replay_with_stats;
use gorder_cachesim::{CacheHierarchy, HierarchyConfig, Tracer};
use gorder_core::budget::Budget;
use gorder_engine::kernels::pagerank::pagerank_with_plan;
use gorder_engine::{ExecPlan, KernelCtx};
use gorder_graph::datasets::Dataset;
use gorder_graph::{Graph, Permutation};
use gorder_orders::{CacheKey, OrderCache};

use crate::measure::Rec;

/// Kernels whose checksums hash relabel-invariant quantities (with the
/// source mapped through the permutation), as `tests/engine_props.rs`
/// establishes.
pub const INVARIANT: [&str; 5] = ["NQ", "BFS", "SP", "SCC", "Kcore"];

/// Kernels replayed through the cache model.
pub const SIM_KERNELS: [&str; 3] = ["NQ", "BFS", "PR"];

/// The ordering every workload measures, under the daemon's defaults
/// (window 5, seed 0), so in-process and served permutations agree.
pub const ORDERING: &str = "Gorder";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    Original,
    Gorder,
}

impl Layout {
    pub fn name(self) -> &'static str {
        match self {
            Layout::Original => "original",
            Layout::Gorder => "gorder",
        }
    }
}

/// A dataset in both layouts, with the permutation between them.
pub struct Ordered {
    pub g: Graph,
    pub perm: Permutation,
    pub h: Graph,
}

impl Ordered {
    pub fn graph(&self, layout: Layout) -> &Graph {
        match layout {
            Layout::Original => &self.g,
            Layout::Gorder => &self.h,
        }
    }

    /// Kernel contexts for both layouts, with the rooted kernels' source
    /// mapped through the permutation so both compute from the same node.
    pub fn ctxs(&self, seed: u64, pr_iterations: u32) -> [KernelCtx; 2] {
        let src = self.g.max_degree_node().unwrap_or(0);
        let base = KernelCtx {
            pr_iterations,
            seed,
            ..KernelCtx::default()
        };
        [
            KernelCtx {
                source: Some(src),
                ..base.clone()
            },
            KernelCtx {
                source: Some(self.perm.apply(src)),
                ..base
            },
        ]
    }
}

pub fn gen(rec: &mut Rec, ds: &Dataset, scale: f64) -> Graph {
    let s = rec.start("graph.gen");
    let g = ds.build(scale);
    rec.end(s);
    g
}

/// Computes the Gorder permutation through the orders runner.
pub fn gorder(rec: &mut Rec, g: &Graph) -> Permutation {
    let s = rec.start("orders.gorder.compute");
    let run =
        gorder_orders::run_by_name_plan(ORDERING, 0, g, ExecPlan::Serial, &Budget::unlimited())
            .expect("Gorder is a registered ordering")
            .value()
            .expect("an unlimited budget always completes");
    rec.end(s);
    let st = run.stats;
    let updates = st.heap_increments + st.heap_decrements + st.heap_refreshes;
    rec.set_exact("orders.gorder.heap_updates", updates as f64);
    rec.set_exact("orders.gorder.heap_pops", st.heap_pops as f64);
    rec.checksum("Gorder perm", fnv_perm(&run.perm));
    run.perm
}

pub fn relabel(rec: &mut Rec, g: &Graph, perm: &Permutation) -> Graph {
    let s = rec.start("graph.relabel");
    let h = g.relabel(perm);
    rec.end(s);
    h
}

/// Generates, orders and relabels a dataset: the set-up of the workloads
/// that measure an already-ordered graph.
pub fn ordered(rec: &mut Rec, ds: &Dataset, scale: f64) -> Ordered {
    let g = gen(rec, ds, scale);
    let perm = gorder(rec, &g);
    let h = relabel(rec, &g, &perm);
    Ordered { g, perm, h }
}

/// The checksum label of a kernel run: PR's checksum depends on its
/// iteration count, so that is part of the label.
pub fn label(kernel: &str, ctx: &KernelCtx) -> String {
    if kernel == "PR" {
        format!("PR({})", ctx.pr_iterations)
    } else {
        kernel.to_string()
    }
}

/// Runs one engine kernel serially and returns its checksum.
pub fn kernel(rec: &mut Rec, name: &str, g: &Graph, ctx: &KernelCtx, layout: Layout) -> u64 {
    let s = rec.start(&format!("engine.{name}.{}", layout.name()));
    let run = gorder_engine::run_by_name_plan(name, g, ctx, ExecPlan::Serial)
        .expect("the nine paper kernels are registered");
    rec.end(s);
    if layout == Layout::Gorder {
        rec.sample(&format!("engine.{name}.init_s"), run.stats.init_secs);
        rec.set_exact(
            &format!("engine.{name}.edges_relaxed"),
            run.stats.edges_relaxed as f64,
        );
    }
    rec.checksum(
        &format!("{} {}", label(name, ctx), layout.name()),
        run.checksum,
    );
    run.checksum
}

/// All nine kernels, in paper order, on one layout.
pub fn suite(rec: &mut Rec, g: &Graph, ctx: &KernelCtx, layout: Layout) {
    for name in gorder_engine::kernel_names() {
        kernel(rec, name, g, ctx, layout);
    }
}

/// Replays NQ, BFS and PR through the scaled-down cache hierarchy, each
/// on a cold hierarchy, and records every level's misses. The replay
/// checksum lands under the same label as the native run's, so the two
/// are checked against each other.
pub fn sim_pass(rec: &mut Rec, g: &Graph, ctx: &KernelCtx, layout: Layout) {
    for name in SIM_KERNELS {
        let mut tracer = Tracer::new(CacheHierarchy::new(&HierarchyConfig::scaled_down()));
        let s = rec.start(&format!("cachesim.{name}.{}", layout.name()));
        let (checksum, _) =
            replay_with_stats(name, g, &mut tracer, ctx).expect("paper kernels have replayers");
        let secs = rec.end(s);
        let c = tracer.counters();
        rec.checksum(&format!("{} {}", label(name, ctx), layout.name()), checksum);
        if layout == Layout::Gorder {
            rec.set_exact(&format!("cachesim.{name}.refs"), c.refs as f64);
        }
        for (level, misses) in c.level_misses.iter().enumerate() {
            let key = format!("cachesim.{name}.{}.l{}_misses", layout.name(), level + 1);
            rec.set_exact(&key, *misses as f64);
        }
        rec.add("cachesim.refs_replayed", c.refs as f64);
        rec.add("cachesim.replay_secs", secs);
    }
}

/// Checks PR's output on its rank vector. PR's kernel checksum is the
/// quantised rank mass, which is 1 on every graph, so it cannot tell a
/// right answer from a wrong one. The ranks come from the engine's
/// result API (`pagerank_with_plan`, the same kernel, untimed): their
/// digest lands under `PR(k).ranks <layout>`, and the two layouts must
/// agree node for node through the permutation, up to floating-point
/// summation order.
pub fn pr_ranks(rec: &mut Rec, o: &Ordered, ctx: &KernelCtx) {
    let run =
        |g: &Graph| pagerank_with_plan(g, ctx.pr_iterations, ctx.damping, ExecPlan::Serial).rank;
    let (original, gorder) = (run(&o.g), run(&o.h));
    let label = label("PR", ctx);
    for (layout, ranks) in [(Layout::Original, &original), (Layout::Gorder, &gorder)] {
        let digest = fnv(ranks.iter().flat_map(|r| r.to_bits().to_le_bytes()));
        rec.checksum(&format!("{label}.ranks {}", layout.name()), digest);
    }
    let max = original.iter().copied().fold(0.0, f64::max);
    let worst = (0..o.g.n())
        .map(|u| (original[u as usize] - gorder[o.perm.apply(u) as usize]).abs())
        .fold(0.0, f64::max);
    rec.check(worst <= 1e-9 * max, || {
        format!("{label} ranks differ between layouts by {worst:e} (largest rank {max:e})")
    });
}

/// Keys, stores and loads the Gorder permutation of `g` through an
/// `OrderCache` in `dir`, and checks that it comes back unchanged.
pub fn cache_roundtrip(rec: &mut Rec, dir: &Path, g: &Graph, perm: &Permutation) {
    let o = gorder_orders::by_name_extended(ORDERING, 0).expect("Gorder is a registered ordering");
    let s = rec.start("orders.cache_key");
    let key = CacheKey::for_ordering(g, o.as_ref(), 0);
    rec.end(s);
    let cache = match OrderCache::new(dir) {
        Ok(c) => c,
        Err(e) => return rec.check(false, || format!("opening order cache: {e}")),
    };
    let s = rec.start("orders.cache_store");
    let stored = cache.store(&key, perm);
    rec.end(s);
    if let Err(e) = stored {
        return rec.check(false, || format!("storing to order cache: {e}"));
    }
    let s = rec.start("orders.cache_load");
    let back = cache.load(&key, g.n());
    rec.end(s);
    let same = back.as_ref().map(Permutation::as_slice) == Some(perm.as_slice());
    rec.check(same, || {
        "order cache returned a different permutation".into()
    });
}

/// FNV-1a over a permutation's `old → new` map (little-endian `u32`s) —
/// the digest the daemon's `order` replies carry.
pub fn fnv_perm(perm: &Permutation) -> u64 {
    fnv(perm.as_slice().iter().flat_map(|v| v.to_le_bytes()))
}

fn fnv(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h: u64, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}
