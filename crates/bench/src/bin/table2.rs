//! Table 2 — graph-ordering computation time (the paper's Table 9).
//!
//! Times each ordering method's `compute` on every dataset. The paper's
//! shape to reproduce: ChDFS/InDegSort fastest (sub-second), RCM next,
//! SlashBurn/LDG moderate, MinLA < MinLogA expensive, Gorder the most
//! expensive and visibly super-linear in m.

use gorder_bench::fmt::{write_csv, Table};
use gorder_bench::schema::TABLE2_HEADER;
use gorder_bench::timing::pretty_secs;
use gorder_bench::{load_resume, sweep, CellStatus, HarnessArgs, Job, Layout, Sweep, SweepTrace};
use gorder_engine::{run_by_name_plan, ExecPlan, KernelCtx};
use std::cell::RefCell;
use std::sync::Arc;

/// One timed ordering: its order time and its verbatim CSV row.
struct Timed {
    seconds: f64,
    row: Vec<String>,
}

fn main() {
    let args = HarnessArgs::parse();
    args.arm_faults();
    println!(
        "Table 2: ordering computation time in seconds (scale = {})\n",
        args.scale
    );
    let resume = load_resume("table2", &args);
    // A cell whose `cell` and `row` lines both survived the prior trace
    // is re-emitted without resolving its ordering or running the probe.
    let recovered = |dataset: &str, ordering: &str, algo: &str| {
        let key = format!("{ordering}|{dataset}");
        let state = resume.as_ref()?;
        let cell = state.completed_cell(dataset, ordering, algo)?;
        let row = state.row("table2.csv", &key)?;
        Some(Timed {
            seconds: cell.seconds,
            row: row.to_vec(),
        })
    };
    // Original and Random cost nothing interesting; the paper's table
    // starts at MinLA. Keep them anyway — they are part of the zoo. The
    // order time is the driver's: the guarded resolution (computed, or
    // loaded from --order-cache) plus the dataset's graph digest, as the
    // published order times always included it. Unknown dataset and
    // ordering names fail before any graph is built; ordering names
    // match case-insensitively, extensions included.
    let grid = Sweep {
        recovered: Some(&recovered),
        ..args.sweep(None, false, vec!["order"])
    };
    let names: Vec<&str> = grid.orderings.iter().map(|o| o.name()).collect();
    let plan = ExecPlan::with_threads(args.threads);
    let mut measure = |l: &Layout<'_>, _algo: &'static str| -> Option<Job<Timed>> {
        let (g, seconds) = (Arc::clone(l.graph), l.order_seconds);
        let ctx = KernelCtx {
            source: Some(l.source),
            ..KernelCtx::default()
        };
        let head = [l.ordering, l.dataset].map(str::to_string);
        // Layout sanity probe: one engine BFS on the relabelled graph.
        // Equal work counters across orderings confirm every layout
        // solves the same instance. `--threads` parallelises the probe —
        // counters stay identical to serial by the engine's determinism
        // contract.
        Some(Box::new(move || {
            let stats = run_by_name_plan("BFS", &g, &ctx, plan)
                .expect("BFS is an engine kernel")
                .stats;
            let mut row = head.to_vec();
            row.extend([
                format!("{seconds:.6}"),
                stats.iterations.to_string(),
                stats.edges_relaxed.to_string(),
                stats.threads_used.max(1).to_string(),
            ]);
            Timed { seconds, row }
        }))
    };
    // --trace-out streams one `cell` line per timed ordering (algo
    // "order") and one verbatim `row` line, flushed as each lands — an
    // interrupted table run is resumable from disk.
    let trace = RefCell::new(SweepTrace::open("table2", &args));
    let mut swept = sweep(
        &grid,
        &mut measure,
        &mut |e| trace.borrow_mut().order(e),
        &mut |c| {
            let mut trace = trace.borrow_mut();
            trace.cell(c, |t| (t.seconds, 0));
            if let Some(t) = &c.value {
                let key = format!("{}|{}", c.ordering, c.dataset);
                trace.row("table2.csv", &key, &t.row);
            }
        },
    );

    // the sweep is dataset-major; the table and CSV are ordering-major
    swept
        .cells
        .sort_by_key(|c| names.iter().position(|n| *n == c.ordering));
    let datasets = &grid.datasets;
    let header = datasets.iter().map(|d| d.name);
    let mut t = Table::new(["Ordering"].into_iter().chain(header));
    let mut csv_rows = Vec::new();
    for (name, row) in names.iter().zip(swept.cells.chunks(datasets.len())) {
        let mut shown = vec![name.to_string()];
        for c in row {
            match &c.value {
                Some(timed) => {
                    let degraded = matches!(c.status, CellStatus::Degraded(_));
                    let mark = if degraded { "*" } else { "" };
                    shown.push(format!("{}{mark}", pretty_secs(timed.seconds)));
                    csv_rows.push(timed.row.clone());
                }
                // an unusable layout keeps its row, with empty columns
                None => {
                    shown.push(c.status.label().to_string());
                    let mut empty = vec![c.ordering.to_string(), c.dataset.to_string()];
                    empty.resize(TABLE2_HEADER.len(), String::new());
                    csv_rows.push(empty);
                }
            }
        }
        t.row(shown);
    }
    // edge counts footer, as in the replication
    let m = datasets
        .iter()
        .map(|d| swept.size(d, args.scale).1.to_string());
    t.row(["Edges m".to_string()].into_iter().chain(m));

    t.print();
    match write_csv("table2.csv", TABLE2_HEADER, &csv_rows) {
        Ok(p) => println!("\nwrote {}", p.display()),
        Err(e) => eprintln!("csv write failed: {e}"),
    }
    trace.into_inner().finish();
    swept.finish("table2");
}
