//! Ablation study (DESIGN.md §8): does the paper's quality function
//! predict runtime, and how close do cheap skew-aware orderings
//! (HubSort / HubCluster / DBG, from the follow-on literature the paper's
//! discussion cites) get to Gorder?
//!
//! For every ordering — the paper's ten plus the three extensions — on
//! one social and one web dataset, reports: ordering computation time,
//! PageRank runtime, simulated L1 miss rate, the Gorder objective `F(π)`,
//! mean edge span, and bandwidth.

use gorder_bench::fmt::{write_csv, Table};
use gorder_bench::timing::{median_secs, pretty_secs};
use gorder_bench::{load_resume, sweep, HarnessArgs, Job, Layout, Sweep, SweepTrace};
use gorder_cachesim::trace::pagerank as traced_pr;
use gorder_cachesim::{CacheHierarchy, HierarchyConfig, Tracer};
use gorder_core::score::{bandwidth_of, f_score_of};
use gorder_engine::{run_by_name, KernelCtx};
use gorder_graph::locality::mean_edge_span;
use gorder_obs::{PhaseEvent, TraceEvent};
use std::cell::RefCell;
use std::sync::Arc;

/// The datasets the study runs on: one social and one web graph.
const ABLATION_DATASETS: [&str; 2] = ["flickr", "pldarc"];

/// One ordering's row of the study.
struct Row {
    /// Median PageRank seconds and the last run's checksum.
    pr_seconds: f64,
    checksum: u64,
    /// The verbatim CSV row.
    cells: Vec<String>,
    /// The row as the printed table shows it.
    shown: [String; 6],
}

/// The printed table's cells for one row: order time, PR time, L1 miss
/// rate, `F(π)/m`, mean span and bandwidth.
fn shown(order: f64, pr: f64, l1_mr: f64, f: f64, span: f64, bw: &str) -> [String; 6] {
    [
        pretty_secs(order),
        pretty_secs(pr),
        format!("{:.1}%", l1_mr * 100.0),
        format!("{f:.2}"),
        format!("{span:.0}"),
        bw.to_string(),
    ]
}

fn main() {
    let args = HarnessArgs::parse();
    args.arm_faults();
    let ctx = KernelCtx {
        pr_iterations: if args.quick { 5 } else { 50 },
        ..Default::default()
    };
    let tctx = KernelCtx {
        pr_iterations: if args.quick { 2 } else { 5 },
        ..Default::default()
    };
    let resume = load_resume("ablation", &args);
    // A row whose PR `cell` line completed and whose verbatim `row` line
    // survived is replayed without resolving the ordering or measuring.
    let recovered = |dataset: &str, ordering: &str, algo: &str| {
        let key = format!("{dataset}|{ordering}");
        let state = resume.as_ref()?;
        let cell = state.completed_cell(dataset, ordering, algo)?;
        let row = state.row("ablation.csv", &key)?;
        let num = |i: usize| row[i].parse::<f64>().unwrap_or(f64::NAN);
        Some(Row {
            pr_seconds: cell.seconds,
            checksum: cell.checksum,
            cells: row.to_vec(),
            shown: shown(num(2), num(3), num(4), num(5), num(6), &row[7]),
        })
    };
    // Unknown dataset names, datasets outside the study's pair and
    // unknown ordering names fail before any graph is built; ordering
    // names match case-insensitively.
    let grid = Sweep {
        recovered: Some(&recovered),
        ..args.sweep(Some(&ABLATION_DATASETS), true, vec!["PR"])
    };
    // --trace-out streams one `phase` line per ordering resolved, one
    // `cell` line per PageRank row, and one verbatim `row` line per CSV
    // row, flushed as each lands.
    let trace = RefCell::new(SweepTrace::open("ablation", &args));
    let reps = args.reps;
    let mut measure = |l: &Layout<'_>, _algo: &'static str| -> Option<Job<Row>> {
        trace.borrow_mut().event(&TraceEvent::Phase(PhaseEvent {
            name: format!("order.{}.{}", l.dataset, l.ordering),
            seconds: l.order_seconds,
        }));
        let (base, g, perm) = (Arc::clone(l.base), Arc::clone(l.graph), l.perm.clone());
        let (ctx, tctx, order_seconds) = (ctx.clone(), tctx.clone(), l.order_seconds);
        let head = [l.dataset, l.ordering].map(str::to_string);
        Some(Box::new(move || {
            let (pr_seconds, checksum) = median_secs(
                || {
                    run_by_name("PR", &g, &ctx)
                        .expect("PR is an engine kernel")
                        .checksum
                },
                reps,
            );
            let mut tracer = Tracer::new(CacheHierarchy::new(&HierarchyConfig::scaled_down()));
            traced_pr(&g, &mut tracer, &tctx);
            let l1_mr = tracer.stats().l1_miss_rate;
            // F is O(n·w·deg): affordable at harness scale, skip if huge
            let f = if base.n() <= 200_000 {
                f_score_of(&base, &perm, 5) as f64 / base.m() as f64
            } else {
                f64::NAN
            };
            let span = mean_edge_span(&g);
            let bw = bandwidth_of(&base, &perm).to_string();
            let mut cells = head.to_vec();
            cells.extend([
                format!("{order_seconds:.6}"),
                format!("{pr_seconds:.6}"),
                format!("{l1_mr:.5}"),
                format!("{f:.4}"),
                format!("{span:.1}"),
                bw.clone(),
            ]);
            Row {
                pr_seconds,
                checksum,
                cells,
                shown: shown(order_seconds, pr_seconds, l1_mr, f, span, &bw),
            }
        }))
    };
    let swept = sweep(
        &grid,
        &mut measure,
        &mut |e| trace.borrow_mut().order(e),
        &mut |c| {
            let mut trace = trace.borrow_mut();
            trace.cell(c, |r| (r.pr_seconds, r.checksum));
            if let Some(r) = &c.value {
                let key = format!("{}|{}", c.dataset, c.ordering);
                trace.row("ablation.csv", &key, &r.cells);
            }
        },
    );

    for d in &grid.datasets {
        let (n, m) = swept.size(d, args.scale);
        println!(
            "Ablation on {} ({}, n = {n}, m = {m})\n",
            d.name, d.category
        );
        let mut t = Table::new([
            "Ordering",
            "order time",
            "PR time",
            "L1-mr",
            "F(pi)/m",
            "mean span",
            "bandwidth",
        ]);
        // a row that timed out or failed is skipped
        for row in swept.cells.iter().filter(|c| c.dataset == d.name) {
            let Some(r) = &row.value else { continue };
            t.row(
                [row.ordering.to_string()]
                    .into_iter()
                    .chain(r.shown.clone()),
            );
        }
        t.print();
        println!();
    }
    println!("(expect: higher F(pi)/m and lower span track lower L1-mr and faster PR;");
    println!(" HubSort/HubCluster/DBG land between InDegSort and Gorder at ~InDegSort cost)");
    let csv_rows: Vec<Vec<String>> = swept
        .cells
        .iter()
        .filter_map(|c| Some(c.value.as_ref()?.cells.clone()))
        .collect();
    match write_csv(
        "ablation.csv",
        &[
            "dataset",
            "ordering",
            "order_seconds",
            "pr_seconds",
            "l1_mr",
            "f_per_edge",
            "mean_span",
            "bandwidth",
        ],
        &csv_rows,
    ) {
        Ok(p) => println!("wrote {}", p.display()),
        Err(e) => eprintln!("csv write failed: {e}"),
    }
    trace.into_inner().finish();
    swept.finish("ablation");
}
