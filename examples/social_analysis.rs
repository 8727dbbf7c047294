//! Social-network scenario: run a small analytics pipeline (reachability,
//! community cores, influencer cover) over a social graph, comparing the
//! paper's strongest orderings on each stage — the "many algorithms, one
//! ordering" workflow that motivates amortising Gorder's cost.
//!
//! ```sh
//! cargo run --release --example social_analysis
//! ```

use gorder::engine::kernels::domset::dominating_set;
use gorder::engine::kernels::kcore::kcore;
use gorder::engine::kernels::scc::scc;
use gorder::orders::{ChDfs, Rcm};
use gorder::prelude::*;
use std::time::Instant;

fn main() {
    let graph = gorder::graph::datasets::pokec_like().build(0.3);
    println!("social graph: {} users, {} links", graph.n(), graph.m());

    // Structure of the network (order-independent answers).
    let comps = scc(&graph);
    println!(
        "strongly connected components: {} (largest holds {:.0}% of users)",
        comps.count(),
        100.0 * f64::from(comps.largest()) / f64::from(graph.n())
    );
    let cores = kcore(&graph);
    println!("degeneracy (max k-core): {}", cores.degeneracy());
    let ds = dominating_set(&graph);
    println!(
        "greedy influencer cover: {} users dominate the network",
        ds.size()
    );

    // The same pipeline under four orderings: how much does layout matter?
    let orderings: Vec<(&str, Permutation)> = vec![
        ("Original", Permutation::identity(graph.n())),
        ("RCM", Rcm.compute(&graph)),
        ("ChDFS", ChDfs.compute(&graph)),
        ("Gorder", GorderBuilder::new().build().compute(&graph)),
    ];
    println!("\npipeline wall time per ordering (SCC + Kcore + DS):");
    let mut baseline = None;
    for (name, perm) in orderings {
        let rg = graph.relabel(&perm);
        // warm-up pass, then a measured pass
        run_pipeline(&rg);
        let t = Instant::now();
        let (nscc, degen, cover) = run_pipeline(&rg);
        let secs = t.elapsed().as_secs_f64();
        assert_eq!(nscc, comps.count());
        assert_eq!(degen, cores.degeneracy());
        let rel = baseline.get_or_insert(secs);
        println!(
            "  {name:<9} {secs:.3}s  ({:.2}x vs Original; cover size {cover})",
            secs / *rel
        );
    }
    println!("\n(identical analytics, up to tens of percent faster purely from layout)");
}

fn run_pipeline(g: &Graph) -> (u32, u32, u32) {
    let comps = scc(g);
    let cores = kcore(g);
    let ds = dominating_set(g);
    (comps.count(), cores.degeneracy(), ds.size())
}
