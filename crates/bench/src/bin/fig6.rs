//! Figure 6 — rank histogram of ordering methods.
//!
//! Aggregates the Figure 5 grid: for each of the (algorithm × dataset)
//! series, orderings are ranked by runtime; the histogram shows how often
//! each ordering takes each rank. Reads `results/fig5.csv` if present
//! (run `fig5` first for a free ride), otherwise recomputes the grid the
//! way `fig5` would with the same flags (modelled unless `--wall`).
//!
//! Shape to reproduce: Gorder first in roughly half the series and
//! near-first elsewhere; RCM and ChDFS its only real challengers; Random
//! last almost always, LDG just above it.

use gorder_bench::fmt::{read_csv, Table};
use gorder_bench::schema::FIG5_KNOWN_HEADERS;
use gorder_bench::{rank_counts, run_grid, CellResult, GridConfig, HarnessArgs};
use gorder_engine::KernelStats;
use std::path::Path;

fn main() {
    let args = HarnessArgs::parse();
    let cells = load_or_run(&args);
    println!("Figure 6: rank histogram over {} cells\n", cells.len());

    // (a) raw ranking, as in the replication's Figure 6a
    print_ranking("exact ranking (replication Fig 6a)", &cells, None);
    // (b) with the original paper's 1.5× visibility cap (Fig 6b)
    print_ranking(
        "capped at 1.5x Gorder (original-paper reading, Fig 6b)",
        &cells,
        Some(1.5),
    );
}

fn print_ranking(title: &str, cells: &[CellResult], tie: Option<f64>) {
    let r = rank_counts(cells, tie);
    println!("-- {title}: {} series --", r.series);
    if r.skipped_no_gorder > 0 {
        eprintln!(
            "[fig6] warning: {} series skipped (no Gorder cell to anchor the cap)",
            r.skipped_no_gorder
        );
    }
    let k = r.orderings.len();
    let mut header = vec!["Ordering".to_string()];
    header.extend((1..=k).map(|i| format!("#{i}")));
    header.push("mean".into());
    let mut t = Table::new(header);
    // sort by mean rank, best first — mirrors the figure's left-to-right
    let mut idx: Vec<usize> = (0..k).collect();
    // total_cmp: mean_rank is NaN for an ordering with no counted
    // series, which must sort (last), not panic.
    idx.sort_by(|&a, &b| r.mean_rank(a).total_cmp(&r.mean_rank(b)));
    for &o in &idx {
        let mut row = vec![r.orderings[o].clone()];
        row.extend(r.counts[o].iter().map(|c| c.to_string()));
        row.push(format!("{:.2}", r.mean_rank(o) + 1.0));
        t.row(row);
    }
    t.print();
    println!();
}

fn load_or_run(args: &HarnessArgs) -> Vec<CellResult> {
    // --extended aggregates the 14-ordering × 13-algorithm grid instead
    let path = if args.has_flag("--extended") {
        Path::new("results/fig5_extended.csv")
    } else {
        Path::new("results/fig5.csv")
    };
    // Accept every known CSV generation (see `gorder_bench::schema`):
    // five historical columns, eight with engine counters, nine with the
    // `threads` column. Generations are prefix-compatible, so positional
    // reads below work for all of them.
    if path.exists() {
        if let Ok((header, rows)) = read_csv(path) {
            if FIG5_KNOWN_HEADERS.iter().any(|k| header == *k) {
                eprintln!("[fig6] using cached {}", path.display());
                return rows
                    .into_iter()
                    .filter_map(|r| {
                        let stats = KernelStats {
                            iterations: r.get(5).and_then(|s| s.parse().ok()).unwrap_or(0),
                            edges_relaxed: r.get(6).and_then(|s| s.parse().ok()).unwrap_or(0),
                            frontier_peak: r.get(7).and_then(|s| s.parse().ok()).unwrap_or(0),
                            threads_used: r.get(8).and_then(|s| s.parse().ok()).unwrap_or(0),
                            ..KernelStats::default()
                        };
                        Some(CellResult {
                            dataset: r.first()?.clone(),
                            algo: r.get(1)?.clone(),
                            ordering: r.get(2)?.clone(),
                            seconds: r.get(3)?.parse().ok()?,
                            checksum: r.get(4)?.parse().ok()?,
                            stats,
                        })
                    })
                    .collect();
            }
        }
    }
    eprintln!("[fig6] no cached grid; running (use fig5 to cache)");
    let cfg = GridConfig::from_args(args).unwrap_or_else(|e| die(&e));
    let grid = cfg.sweep().unwrap_or_else(|e| die(&e));
    let mut measure = if args.has_flag("--wall") {
        cfg.wall_measure()
    } else {
        cfg.sim_measure()
    };
    let report = run_grid(&grid, &mut *measure, &mut |_| {}, &mut |_| {});
    report.print_skip_report();
    report.usable()
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2)
}
