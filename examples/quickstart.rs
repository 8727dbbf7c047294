//! Quickstart: reorder a graph with Gorder and watch PageRank get faster.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use gorder::cachesim::trace::pagerank as traced_pr;
use gorder::cachesim::{CacheHierarchy, HierarchyConfig, StallModel, Tracer};
use gorder::prelude::*;
use gorder_core::score::f_score_of;
use std::time::Instant;

fn main() {
    // 1. Get a graph. Any directed edge list works (see `gorder::graph::io`);
    //    here we use one of the bundled synthetic dataset recipes.
    let graph = gorder::graph::datasets::flickr_like().build(0.2);
    println!("graph: {} nodes, {} edges", graph.n(), graph.m());

    // 2. Compute the Gorder permutation (window w = 5, the paper default).
    let t0 = Instant::now();
    let gorder = GorderBuilder::new().window(5).build();
    let perm = gorder.compute(&graph);
    println!("gorder computed in {:.2?}", t0.elapsed());

    // 3. The permutation maximises the paper's locality objective F(π).
    let w = 5;
    println!(
        "F(π): original = {}, gorder = {}",
        f_score_of(&graph, &Permutation::identity(graph.n()), w),
        f_score_of(&graph, &perm, w),
    );

    // 4. Materialise the reordered graph and run an unmodified algorithm
    //    on both layouts — identical results, different memory behaviour.
    let reordered = graph.relabel(&perm);
    let ctx = KernelCtx {
        pr_iterations: 50,
        ..Default::default()
    };
    let pr = |g: &Graph| run_by_name("PR", g, &ctx).expect("PR is a kernel").checksum;
    assert_eq!(pr(&graph), pr(&reordered), "same ranks");

    // 5. Where the speedup comes from: cache behaviour. The simulator
    //    shows the per-layout profile on any machine; raw wall clock only
    //    shows it when the graph exceeds your LLC (this demo graph is far
    //    too small for that — run your own billion-edge graph for the
    //    paper's 10-50 % wall-clock wins).
    let profile = |g: &Graph| {
        let mut tracer = Tracer::new(CacheHierarchy::new(&HierarchyConfig::scaled_down()));
        traced_pr(
            g,
            &mut tracer,
            &KernelCtx {
                pr_iterations: 5,
                ..Default::default()
            },
        );
        let stats = tracer.stats();
        let stall = tracer.breakdown(&StallModel::skylake());
        (stats.l1_miss_rate, stall.stall_fraction(), stall.total())
    };
    let (mr_orig, stall_orig, cyc_orig) = profile(&graph);
    let (mr_gord, stall_gord, cyc_gord) = profile(&reordered);
    println!("\nPageRank cache profile (simulated, scaled hierarchy):");
    println!(
        "  original: L1 miss {:.1}%, stalled {:.0}% of cycles",
        mr_orig * 100.0,
        stall_orig * 100.0
    );
    println!(
        "  gorder:   L1 miss {:.1}%, stalled {:.0}% of cycles",
        mr_gord * 100.0,
        stall_gord * 100.0
    );
    println!("  modelled speedup: {:.2}x", cyc_orig / cyc_gord);
}
