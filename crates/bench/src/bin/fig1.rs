//! Figure 1 — CPU execute vs cache stall, Original order vs Gorder.
//!
//! Replays every benchmark algorithm on the sdarc dataset through the
//! cache simulator twice — once in the original order, once Gorder-ed —
//! and prints the modelled CPU/stall split, normalised to the original
//! order's total (exactly how the paper's Figure 1 bars are drawn).
//!
//! Shape to reproduce: CPU bars nearly equal between the two orders,
//! stall bars visibly smaller under Gorder, total below 1.0.
//!
//! The grid is fixed (sdarc × {Original, Gorder} × every kernel), so
//! `--datasets`, `--orderings` and `--algos` are refused with exit 2.

use gorder_bench::args::die;
use gorder_bench::fmt::{write_csv, Table};
use gorder_bench::{resolve_orderings, sweep, HarnessArgs, Job, Layout, Sweep};
use gorder_cachesim::trace::replay;
use gorder_cachesim::{CacheHierarchy, HierarchyConfig, StallBreakdown, StallModel, Tracer};
use gorder_engine::KernelCtx;
use std::sync::Arc;

fn main() {
    let args = HarnessArgs::parse();
    if args.datasets.is_some() || args.orderings.is_some() || args.algos.is_some() {
        die(
            "fig1 runs a fixed grid (sdarc × Original, Gorder × every kernel) \
             and takes no --datasets, --orderings or --algos",
        );
    }
    // The synthetic datasets are ~100× smaller than the paper's, so the
    // scaled-down hierarchy keeps working-set-to-cache ratios comparable;
    // pass --xeon for the full Xeon E5 geometry.
    let hconfig = if args.has_flag("--xeon") {
        HierarchyConfig::xeon_e5()
    } else {
        HierarchyConfig::scaled_down()
    };
    let model = StallModel::skylake();
    let ctx = KernelCtx {
        pr_iterations: if args.quick { 5 } else { 20 },
        diameter_samples: if args.quick { 2 } else { 4 },
        seed: args.seed,
        ..Default::default()
    };
    let sdarc = gorder_graph::datasets::sdarc_like();
    let pair = Some(vec!["Original".to_string(), "Gorder".to_string()]);
    let grid = Sweep {
        datasets: vec![sdarc],
        scale: args.scale,
        orderings: resolve_orderings(&pair, false, args.seed).expect("registry names"),
        kernels: gorder_engine::kernel_names(),
        seed: args.seed,
        timeout: args.cell_timeout_duration(),
        cache: args.open_order_cache(),
        recovered: None,
    };
    let mut measure = |l: &Layout<'_>, algo: &'static str| -> Option<Job<StallBreakdown>> {
        let g = Arc::clone(l.graph);
        let ctx = KernelCtx {
            source: Some(l.source),
            ..ctx.clone()
        };
        let (hconfig, model) = (hconfig.clone(), model.clone());
        Some(Box::new(move || {
            let mut tracer = Tracer::new(CacheHierarchy::new(&hconfig));
            replay(algo, &g, &mut tracer, &ctx).expect("known algorithm");
            tracer.breakdown(&model)
        }))
    };
    let swept = sweep(&grid, &mut measure, &mut |_| {}, &mut |_| {});

    let (n, m) = swept.size(&sdarc, args.scale);
    println!("Figure 1: CPU execute vs cache stall on sdarc (n = {n}, m = {m})\n");
    let mut t = Table::new([
        "Algo",
        "orig CPU",
        "orig stall",
        "orig total",
        "gord CPU",
        "gord stall",
        "gord total",
    ]);
    let mut csv_rows = Vec::new();
    // the sweep is ordering-major: each kernel's Original cell pairs with
    // the Gorder cell one pool later
    let (original, gorder) = swept.cells.split_at(swept.cells.len() / 2);
    for (o, g) in original.iter().zip(gorder) {
        let (Some(orig), Some(gord)) = (&o.value, &g.value) else {
            continue;
        };
        let name = o.algo;
        let norm = orig.total().max(1.0);
        t.row([
            name.to_string(),
            format!("{:.2}", orig.cpu_cycles / norm),
            format!("{:.2}", orig.stall_cycles / norm),
            "1.00".to_string(),
            format!("{:.2}", gord.cpu_cycles / norm),
            format!("{:.2}", gord.stall_cycles / norm),
            format!("{:.2}", gord.total() / norm),
        ]);
        csv_rows.push(vec![
            name.to_string(),
            format!("{:.4}", orig.cpu_cycles / norm),
            format!("{:.4}", orig.stall_cycles / norm),
            format!("{:.4}", gord.cpu_cycles / norm),
            format!("{:.4}", gord.stall_cycles / norm),
        ]);
        eprintln!(
            "[fig1] {name}: stall share {:.0}% -> {:.0}%",
            orig.stall_fraction() * 100.0,
            gord.stall_fraction() * 100.0
        );
    }
    t.print();
    println!("\n(per algorithm, both bars normalised to the original order's total;");
    println!(" expect similar CPU, smaller stall and total < 1.00 under Gorder)");
    match write_csv(
        "fig1.csv",
        &[
            "algo",
            "orig_cpu",
            "orig_stall",
            "gorder_cpu",
            "gorder_stall",
        ],
        &csv_rows,
    ) {
        Ok(p) => println!("wrote {}", p.display()),
        Err(e) => eprintln!("csv write failed: {e}"),
    }
    swept.finish("fig1");
}
