//! Figure 4 — tuning Gorder's window size (the paper's Figure 8).
//!
//! Builds Gorder orderings of the flickr dataset for window sizes from 1
//! up to ~n, runs PageRank on each reordered graph, and reports the PR
//! runtime and the ordering time per window. Shapes to reproduce: PR time
//! dips from w = 1, is good near the paper's w = 5, slightly better on the
//! replication's 64–2048 plateau, and degrades for very large windows —
//! while ordering time grows with w.

use gorder_bench::fmt::{write_csv, Table};
use gorder_bench::timing::{median_secs, pretty_secs, time_once};
use gorder_bench::HarnessArgs;
use gorder_cachesim::trace::pagerank as traced_pr;
use gorder_cachesim::{CacheHierarchy, HierarchyConfig, StallModel, Tracer};
use gorder_core::GorderBuilder;
use gorder_engine::{run_by_name, KernelCtx};

fn main() {
    let args = HarnessArgs::parse();
    let g = gorder_graph::datasets::flickr_like().build(args.scale);
    println!(
        "Figure 4: PR runtime vs Gorder window size on flickr (n = {}, m = {})\n",
        g.n(),
        g.m()
    );
    let max_pow = if args.quick { 8 } else { 20 };
    let windows: Vec<u32> = (0..=max_pow)
        .map(|p| 1u32 << p)
        .filter(|&w| w <= g.n())
        .collect();
    let wall = args.has_flag("--wall");
    let ctx = KernelCtx {
        pr_iterations: if args.quick { 10 } else { 100 },
        ..Default::default()
    };
    let tctx = KernelCtx {
        pr_iterations: if args.quick { 2 } else { 5 },
        ..Default::default()
    };
    let model = StallModel::skylake();
    println!(
        "(PR time: {} — pass --wall for wall-clock)\n",
        if wall {
            "wall-clock"
        } else {
            "modelled, simulator + stall model at 4 GHz"
        }
    );

    let mut t = Table::new(["w", "PR time", "L1-mr", "ordering time"]);
    let mut csv_rows = Vec::new();
    for &w in &windows {
        let (order_secs, perm) = time_once(|| GorderBuilder::new().window(w).build().compute(&g));
        let rg = g.relabel(&perm);
        let (pr_secs, l1_mr) = if wall {
            let (secs, _) = median_secs(
                || {
                    run_by_name("PR", &rg, &ctx)
                        .expect("PR is an engine kernel")
                        .checksum
                },
                args.reps,
            );
            (secs, f64::NAN)
        } else {
            let mut tracer = Tracer::new(CacheHierarchy::new(&HierarchyConfig::scaled_down()));
            traced_pr(&rg, &mut tracer, &tctx);
            (
                tracer.breakdown(&model).total() / 4e9,
                tracer.stats().l1_miss_rate,
            )
        };
        t.row([
            w.to_string(),
            pretty_secs(pr_secs),
            if l1_mr.is_nan() {
                "-".to_string()
            } else {
                format!("{:.1}%", l1_mr * 100.0)
            },
            pretty_secs(order_secs),
        ]);
        csv_rows.push(vec![
            w.to_string(),
            format!("{pr_secs:.6}"),
            format!("{order_secs:.6}"),
        ]);
        eprintln!(
            "[fig4] w = {w}: PR {} (order {})",
            pretty_secs(pr_secs),
            pretty_secs(order_secs)
        );
    }
    t.print();
    println!("\n(expect a mild minimum around w = 5…2048 and growth at both extremes)");
    match write_csv(
        "fig4.csv",
        &["window", "pr_seconds", "order_seconds"],
        &csv_rows,
    ) {
        Ok(p) => println!("wrote {}", p.display()),
        Err(e) => eprintln!("csv write failed: {e}"),
    }
}
