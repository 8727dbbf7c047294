//! Table 3 — cache statistics for PageRank per ordering (the paper's
//! Tables 3–4), on the flickr and sdarc datasets.
//!
//! Replays PR through the cache simulator under all ten orderings and
//! prints L1-ref, L1-mr, L3-ref, L3-r and Cache-mr, exactly the
//! replication's columns. Shape to reproduce: similar L1-ref everywhere
//! (same work); Gorder and RCM the lowest miss rates, ChDFS close;
//! Random and LDG the highest; MinLA/MinLogA/Original in between.

use gorder_bench::fmt::{write_csv, Table};
use gorder_bench::{sweep, HarnessArgs, Job, Layout};
use gorder_cachesim::trace::pagerank;
use gorder_cachesim::{CacheHierarchy, CacheStats, HierarchyConfig, Tracer};
use gorder_engine::KernelCtx;
use std::sync::Arc;

/// Table 3a's and 3b's datasets.
const TABLE3_DATASETS: [&str; 2] = ["flickr", "sdarc"];

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
    // Unknown names, and datasets outside the table's pair, fail before
    // any graph is built.
    let grid = args.sweep(Some(&TABLE3_DATASETS), false, vec!["PR"]);
    let mut measure = |l: &Layout<'_>, _algo: &'static str| -> Option<Job<CacheStats>> {
        let (g, hconfig, ctx) = (Arc::clone(l.graph), hconfig.clone(), ctx.clone());
        Some(Box::new(move || {
            let mut tracer = Tracer::new(CacheHierarchy::new(&hconfig));
            pagerank(&g, &mut tracer, &ctx);
            tracer.stats()
        }))
    };
    let swept = sweep(&grid, &mut measure, &mut |_| {}, &mut |_| {});

    let mut csv_rows = Vec::new();
    for d in &grid.datasets {
        let part = if d.name == TABLE3_DATASETS[0] {
            'a'
        } else {
            'b'
        };
        let (n, m) = swept.size(d, args.scale);
        println!(
            "Table 3{part} ({}): PageRank cache statistics (n = {n}, m = {m})\n",
            d.name
        );
        let mut t = Table::new([
            "Order",
            "L1-ref(1e6)",
            "L1-mr",
            "L3-ref(1e6)",
            "L3-r",
            "Cache-mr",
        ]);
        for c in swept.cells.iter().filter(|c| c.dataset == d.name) {
            let Some(s) = &c.value else { continue };
            t.row([
                c.ordering.to_string(),
                format!("{:.1}", s.l1_refs as f64 / 1e6),
                format!("{:.1}%", s.l1_miss_rate * 100.0),
                format!("{:.2}", s.llc_refs as f64 / 1e6),
                format!("{:.1}%", s.llc_ratio * 100.0),
                format!("{:.1}%", s.cache_miss_rate * 100.0),
            ]);
            csv_rows.push(vec![
                d.name.to_string(),
                c.ordering.to_string(),
                s.l1_refs.to_string(),
                format!("{:.5}", s.l1_miss_rate),
                s.llc_refs.to_string(),
                format!("{:.5}", s.llc_ratio),
                format!("{:.5}", s.cache_miss_rate),
            ]);
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
    swept.finish("table3");
}
