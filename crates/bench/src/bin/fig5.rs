//! Figure 5 — the headline result (the paper's Figure 9): runtime of every
//! ordering relative to Gorder, for all nine algorithms on all datasets.
//!
//! Default output groups by dataset (Figure 5); pass `--by-ordering` for
//! the S1 supplementary grouping. The grid is also written to
//! `results/fig5.csv`, which `fig6` consumes.
//!
//! Times are **modelled** by default (cache simulator + stall model),
//! because the paper's runtime differences are cache effects and only
//! appear on hardware whose LLC is small relative to the graph — which a
//! laptop-scale reproduction cannot guarantee (this project's dev host
//! has a 260 MiB L3). `--wall` switches to raw wall-clock timing.
//!
//! Shapes to reproduce: Gorder best or near-best everywhere; RCM best on
//! BFS/SP/Diam; ChDFS best on DFS; Random worst; LDG barely better than
//! Random; Original beats MinLA/MinLogA.

use gorder_bench::fmt::{write_csv, Table};
use gorder_bench::schema::FIG5_HEADER;
use gorder_bench::timing::pretty_secs;
use gorder_bench::{
    load_resume, run_grid, CellResult, CellStatus, GridConfig, HarnessArgs, RobustCell, Sweep,
    SweepTrace,
};
use gorder_orders::OrderCache;
use std::cell::RefCell;

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2)
}

fn main() {
    let args = HarnessArgs::parse();
    // --faults arms the deterministic fault-injection layer (same
    // grammar as GORDER_FAULTS) — crash-safety tests only.
    if let Some(spec) = &args.faults {
        if let Err(e) = gorder_obs::faults::arm_from_spec(spec) {
            die(&format!("--faults {e}"));
        }
    }
    // --extended adds HubSort/HubCluster/DBG/Bisect and WCC/Tri/LP/BC;
    // --threads N parallelises the engine-backed kernels in wall-clock
    // mode (simulated cells always trace serially and report threads 1);
    // --datasets/--orderings/--algos narrow the grid (and are part of the
    // manifest's config hash, so a resumed run must repeat them). Names
    // resolve case-insensitively here, and an unknown one fails before
    // any graph is built, with a typo suggestion when one is close.
    let cfg = GridConfig::from_args(&args).unwrap_or_else(|e| die(&e));
    let grid = cfg.sweep().unwrap_or_else(|e| die(&e));
    // Default: modelled time via the cache simulator (reproduces the
    // paper's cache-bound regime regardless of host hardware). Pass
    // --wall for raw wall-clock — meaningful only when the datasets
    // exceed the machine's real LLC. With `--cell-timeout <secs>`, every
    // ordering and cell runs on a watched thread: runaway cells are
    // skipped (reported at the end) and the sweep always finishes.
    let wall = args.has_flag("--wall");
    let mode_note = if wall {
        "(mode: wall-clock)".to_string()
    } else {
        "(mode: simulated — stall-model cycles at 4 GHz; pass --wall for wall-clock)".to_string()
    };
    println!("{mode_note}");
    let csv_name = if cfg.extended {
        "fig5_extended.csv"
    } else {
        "fig5.csv"
    };
    let resume = load_resume("fig5", &args);
    // --trace-out streams one JSONL line per finished cell plus one
    // `row` line per finished CSV row (the run manifest up front), so a
    // sweep interrupted partway still leaves a reconstructable record
    // next to the CSV — the write-ahead log `--resume` replays.
    // RefCell: the sweep feeds the trace from two closures at once (the
    // cell observer and the order-event observer).
    let trace = RefCell::new(SweepTrace::open("fig5", &args));
    // --order-cache DIR reuses permutations across runs: content-addressed
    // by graph digest + ordering identity, so a warm second run computes
    // zero orderings and reproduces the CSV byte-identically.
    let cache = args.order_cache.as_ref().map(|dir| {
        OrderCache::new(std::path::Path::new(dir))
            .unwrap_or_else(|e| die(&format!("--order-cache {dir}: {e}")))
    });
    // A cell is recovered only when both its `cell` line and its
    // verbatim `row` line survived — a crash between the two lines
    // re-runs the cell rather than guessing at the missing half.
    let recovered = |dataset: &str, ordering: &str, algo: &str| -> Option<CellResult> {
        let s = resume.as_ref()?;
        let cell = s.completed_cell(dataset, ordering, algo)?;
        s.row(csv_name, &format!("{dataset}|{algo}|{ordering}"))?;
        Some(CellResult {
            seconds: cell.seconds,
            checksum: cell.checksum,
            ..CellResult::blank(dataset, ordering, algo)
        })
    };
    let grid = Sweep {
        timeout: args.cell_timeout_duration(),
        cache: cache.as_ref(),
        recovered: Some(&recovered),
        ..grid
    };
    let mut measure = if wall {
        cfg.wall_measure()
    } else {
        cfg.sim_measure()
    };
    let mut csv_rows: Vec<Vec<String>> = Vec::new();
    let mut on_cell = |c: &RobustCell| {
        let mut trace = trace.borrow_mut();
        trace.cell(c);
        if c.status.is_usable() {
            let r = &c.result;
            let key = format!("{}|{}|{}", r.dataset, r.algo, r.ordering);
            // prefer the recovered verbatim row (stats of recovered
            // cells are zeroed; the prior run's bytes are the truth)
            let row = resume
                .as_ref()
                .and_then(|s| s.row(csv_name, &key))
                .map(<[String]>::to_vec)
                .unwrap_or_else(|| fig5_row(r));
            trace.row(csv_name, &key, &row);
            csv_rows.push(row);
        }
    };
    let report = run_grid(
        &grid,
        &mut *measure,
        &mut |e| trace.borrow_mut().order(e),
        &mut on_cell,
    );
    report.print_skip_report();
    let cells = report.usable();
    let failed = report
        .cells
        .iter()
        .filter(|c| matches!(c.status, CellStatus::Failed(_)))
        .count();

    match write_csv(csv_name, FIG5_HEADER, &csv_rows) {
        Ok(p) => eprintln!("[fig5] wrote {}", p.display()),
        Err(e) => eprintln!("csv write failed: {e}"),
    }
    // metrics snapshot last: the ordering spans and heap counters the
    // sweep accumulated become the trace's closing lines
    trace.into_inner().finish();

    let algos: Vec<String> = dedup(cells.iter().map(|c| c.algo.clone()));
    let datasets: Vec<String> = dedup(cells.iter().map(|c| c.dataset.clone()));
    let orderings: Vec<String> = dedup(cells.iter().map(|c| c.ordering.clone()));
    let find = |ds: &str, al: &str, or: &str| -> Option<&CellResult> {
        cells
            .iter()
            .find(|c| c.dataset == ds && c.algo == al && c.ordering == or)
    };

    if args.has_flag("--by-ordering") {
        // Figure S1: one block per algorithm, rows = orderings, cols = datasets
        println!("Figure S1: relative runtime vs Gorder, grouped by ordering\n");
        for al in &algos {
            println!("== {al} ==");
            let mut header = vec!["Ordering".to_string()];
            header.extend(datasets.iter().cloned());
            let mut t = Table::new(header);
            for or in &orderings {
                let mut row = vec![or.clone()];
                for ds in &datasets {
                    row.push(relative(find(ds, al, or), find(ds, al, "Gorder")));
                }
                t.row(row);
            }
            t.print();
            println!();
        }
    } else {
        // Figure 5: one block per algorithm, rows = datasets; first row
        // shows Gorder's absolute time, others are relative factors.
        println!("Figure 5: runtime relative to Gorder (1.00 = Gorder)\n");
        for al in &algos {
            println!("== {al} ==");
            let mut header = vec!["Dataset".to_string(), "Gorder abs".to_string()];
            header.extend(orderings.iter().filter(|o| *o != "Gorder").cloned());
            let mut t = Table::new(header);
            for ds in &datasets {
                let gorder = find(ds, al, "Gorder");
                let mut row = vec![
                    ds.clone(),
                    gorder
                        .map(|c| pretty_secs(c.seconds))
                        .unwrap_or_else(|| "-".into()),
                ];
                for or in orderings.iter().filter(|o| *o != "Gorder") {
                    row.push(relative(find(ds, al, or), gorder));
                }
                t.row(row);
            }
            t.print();
            println!();
        }
    }
    // A failed cell (a panic, or a permutation of the wrong length) is a
    // fault in the program, not a budget decision like a timeout: the
    // grid, CSV and trace are still written whole, but the run exits 1
    // so a script or CI step sees it.
    if failed > 0 {
        eprintln!("[fig5] {failed} cell(s) failed");
        std::process::exit(1);
    }
}

/// One `results/fig5*.csv` row for a freshly computed cell — the exact
/// bytes also recorded as the cell's trace `row` line.
fn fig5_row(c: &CellResult) -> Vec<String> {
    vec![
        c.dataset.clone(),
        c.algo.clone(),
        c.ordering.clone(),
        format!("{:.6}", c.seconds),
        c.checksum.to_string(),
        c.stats.iterations.to_string(),
        c.stats.edges_relaxed.to_string(),
        c.stats.frontier_peak.to_string(),
        // threads actually used: 1 for simulated/serial cells and
        // the extension algorithms (which ignore the plan).
        c.stats.threads_used.max(1).to_string(),
    ]
}

fn relative(cell: Option<&CellResult>, gorder: Option<&CellResult>) -> String {
    match (cell, gorder) {
        (Some(c), Some(g)) if g.seconds > 0.0 => format!("{:.2}", c.seconds / g.seconds),
        _ => "-".into(),
    }
}

fn dedup<I: IntoIterator<Item = String>>(it: I) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    for x in it {
        if !out.contains(&x) {
            out.push(x);
        }
    }
    out
}
