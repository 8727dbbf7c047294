//! Figure 1 — CPU execute vs cache stall, Original order vs Gorder.
//!
//! Replays every benchmark algorithm on the sdarc dataset through the
//! cache simulator twice — once in the original order, once Gorder-ed —
//! and prints the modelled CPU/stall split, normalised to the original
//! order's total (exactly how the paper's Figure 1 bars are drawn).
//!
//! Shape to reproduce: CPU bars nearly equal between the two orders,
//! stall bars visibly smaller under Gorder, total below 1.0.

use gorder_bench::fmt::{write_csv, Table};
use gorder_bench::HarnessArgs;
use gorder_cachesim::trace::replay;
use gorder_cachesim::{CacheHierarchy, HierarchyConfig, StallModel, Tracer};
use gorder_core::Gorder;
use gorder_engine::KernelCtx;

fn main() {
    let args = HarnessArgs::parse();
    let g = gorder_graph::datasets::sdarc_like().build(args.scale);
    println!(
        "Figure 1: CPU execute vs cache stall on sdarc (n = {}, m = {})\n",
        g.n(),
        g.m()
    );
    // The synthetic datasets are ~100× smaller than the paper's, so the
    // scaled-down hierarchy keeps working-set-to-cache ratios comparable;
    // pass --xeon for the full Xeon E5 geometry.
    let hconfig = if args.has_flag("--xeon") {
        HierarchyConfig::xeon_e5()
    } else {
        HierarchyConfig::scaled_down()
    };
    let model = StallModel::skylake();
    let perm = Gorder::with_defaults().compute(&g);
    let reordered = g.relabel(&perm);
    let ctx = KernelCtx {
        pr_iterations: if args.quick { 5 } else { 20 },
        diameter_samples: if args.quick { 2 } else { 4 },
        seed: args.seed,
        ..Default::default()
    };

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
    for name in gorder_engine::kernel_names() {
        let run = |graph: &gorder_graph::Graph| {
            let mut tracer = Tracer::new(CacheHierarchy::new(&hconfig));
            replay(name, graph, &mut tracer, &ctx).expect("known algorithm");
            tracer.breakdown(&model)
        };
        let orig = run(&g);
        let gord = run(&reordered);
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
}
