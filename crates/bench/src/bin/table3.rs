//! Table 3 — cache statistics for PageRank per ordering (the paper's
//! Tables 3–4), on the flickr and sdarc datasets.
//!
//! Replays PR through the cache simulator under all ten orderings and
//! prints L1-ref, L1-mr, L3-ref, L3-r and Cache-mr, exactly the
//! replication's columns. Shape to reproduce: similar L1-ref everywhere
//! (same work); Gorder and RCM the lowest miss rates, ChDFS close;
//! Random and LDG the highest; MinLA/MinLogA/Original in between.

use gorder_bench::fmt::{write_csv, Table};
use gorder_bench::HarnessArgs;
use gorder_cachesim::trace::pagerank;
use gorder_cachesim::{CacheHierarchy, HierarchyConfig, Tracer};
use gorder_engine::KernelCtx;

fn main() {
    let args = HarnessArgs::parse();
    let hconfig = if args.has_flag("--xeon") {
        HierarchyConfig::xeon_e5()
    } else {
        HierarchyConfig::scaled_down()
    };
    let ctx = KernelCtx {
        pr_iterations: if args.quick { 3 } else { 10 },
        seed: args.seed,
        ..Default::default()
    };
    let mut csv_rows = Vec::new();
    for (label, d) in [
        ("3a (flickr)", gorder_graph::datasets::flickr_like()),
        ("3b (sdarc)", gorder_graph::datasets::sdarc_like()),
    ] {
        let g = d.build(args.scale);
        println!(
            "Table {label}: PageRank cache statistics (n = {}, m = {})\n",
            g.n(),
            g.m()
        );
        let mut t = Table::new([
            "Order",
            "L1-ref(1e6)",
            "L1-mr",
            "L3-ref(1e6)",
            "L3-r",
            "Cache-mr",
        ]);
        for o in gorder_orders::all(args.seed) {
            let perm = o.compute(&g);
            let rg = g.relabel(&perm);
            let mut tracer = Tracer::new(CacheHierarchy::new(&hconfig));
            pagerank(&rg, &mut tracer, &ctx);
            let s = tracer.stats();
            t.row([
                o.name().to_string(),
                format!("{:.1}", s.l1_refs as f64 / 1e6),
                format!("{:.1}%", s.l1_miss_rate * 100.0),
                format!("{:.2}", s.llc_refs as f64 / 1e6),
                format!("{:.1}%", s.llc_ratio * 100.0),
                format!("{:.1}%", s.cache_miss_rate * 100.0),
            ]);
            csv_rows.push(vec![
                d.name.to_string(),
                o.name().to_string(),
                s.l1_refs.to_string(),
                format!("{:.5}", s.l1_miss_rate),
                s.llc_refs.to_string(),
                format!("{:.5}", s.llc_ratio),
                format!("{:.5}", s.cache_miss_rate),
            ]);
            eprintln!(
                "[table3] {} on {}: L1-mr {:.1}%",
                o.name(),
                d.name,
                s.l1_miss_rate * 100.0
            );
        }
        t.print();
        println!();
    }
    match write_csv(
        "table3.csv",
        &[
            "dataset",
            "ordering",
            "l1_refs",
            "l1_mr",
            "llc_refs",
            "llc_ratio",
            "cache_mr",
        ],
        &csv_rows,
    ) {
        Ok(p) => println!("wrote {}", p.display()),
        Err(e) => eprintln!("csv write failed: {e}"),
    }
}
