//! Web-graph scenario: rank pages of a host-structured hyperlink graph
//! and attribute the reordering speedup to cache behaviour with the
//! simulator — the paper's intro use case (search-engine PageRank over a
//! crawl) end to end.
//!
//! ```sh
//! cargo run --release --example web_ranking
//! ```

use gorder::cachesim::trace::pagerank as traced_pr;
use gorder::cachesim::{CacheHierarchy, HierarchyConfig, StallModel, Tracer};
use gorder::engine::kernels::pagerank::pagerank;
use gorder::prelude::*;

fn main() {
    // A copying-model web graph with host-block locality (sdarc-like).
    let graph = gorder::graph::datasets::sdarc_like().build(0.05);
    println!("web graph: {} pages, {} hyperlinks", graph.n(), graph.m());

    // Rank pages.
    let ranks = pagerank(&graph, 50, 0.85);
    let top = ranks.top_node().expect("non-empty graph");
    println!(
        "top page: node {top} (rank {:.5}, in-degree {})",
        ranks.rank[top as usize],
        graph.in_degree(top)
    );

    // Compare cache behaviour of PageRank across three layouts.
    let orderings: Vec<(&str, Permutation)> = vec![
        ("Original", Permutation::identity(graph.n())),
        ("Random", Permutation::random(graph.n(), &mut rand_rng())),
        (
            "Gorder",
            GorderBuilder::new().window(5).build().compute(&graph),
        ),
    ];
    let model = StallModel::skylake();
    let ctx = KernelCtx {
        pr_iterations: 5,
        ..Default::default()
    };
    println!("\nPageRank cache profile (simulated, scaled-down hierarchy):");
    println!(
        "{:<10} {:>8} {:>8} {:>10}",
        "order", "L1-mr", "cache-mr", "stall-share"
    );
    for (name, perm) in orderings {
        let rg = graph.relabel(&perm);
        let mut tracer = Tracer::new(CacheHierarchy::new(&HierarchyConfig::scaled_down()));
        traced_pr(&rg, &mut tracer, &ctx);
        let s = tracer.stats();
        let b = tracer.breakdown(&model);
        println!(
            "{:<10} {:>7.1}% {:>7.1}% {:>9.1}%",
            name,
            s.l1_miss_rate * 100.0,
            s.cache_miss_rate * 100.0,
            b.stall_fraction() * 100.0
        );
    }
    println!("\n(expect Gorder lowest on every column, Random highest)");
}

fn rand_rng() -> impl rand::Rng {
    use rand::SeedableRng;
    rand::rngs::StdRng::seed_from_u64(7)
}
