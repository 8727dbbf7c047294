//! Compression experiment (extension, DESIGN.md §8): the paper's
//! discussion notes that "graph compression also benefits from orderings
//! that cluster nodes with high proximity" (Boldi & Vigna's WebGraph).
//! This binary measures it: gap + varint encoded adjacency size, in bits
//! per edge, for every ordering on every dataset.
//!
//! Expected shape: the arrangement-energy optimisers (MinLA/MinLogA) and
//! Gorder compress best (small gaps), Random worst — note this ranking
//! differs from the *runtime* ranking, where MinLA does poorly: gap size
//! is exactly MinLA's objective but only a proxy for cache locality.

use gorder_bench::fmt::{write_csv, Table};
use gorder_bench::{sweep, HarnessArgs, Job, Layout};
use gorder_graph::compress::CompressedGraph;
use std::sync::Arc;

fn main() {
    let args = HarnessArgs::parse();
    println!(
        "Compression: gap+varint bits per edge, per ordering (scale = {})\n",
        args.scale
    );
    // unknown names fail before any graph is built
    let grid = args.sweep(None, false, vec!["compress"]);
    let names: Vec<&str> = grid.orderings.iter().map(|o| o.name()).collect();
    let mut measure = |l: &Layout<'_>, _algo: &'static str| -> Option<Job<f64>> {
        let g = Arc::clone(l.graph);
        Some(Box::new(move || {
            CompressedGraph::compress(&g).bits_per_edge()
        }))
    };
    let mut swept = sweep(&grid, &mut measure, &mut |_| {}, &mut |_| {});

    // the sweep is dataset-major; the table and CSV are ordering-major
    swept
        .cells
        .sort_by_key(|c| names.iter().position(|n| *n == c.ordering));
    let datasets = grid.datasets.iter().map(|d| d.name);
    let mut t = Table::new(["Ordering"].into_iter().chain(datasets));
    let mut csv_rows = Vec::new();
    for (name, row) in names.iter().zip(swept.cells.chunks(grid.datasets.len())) {
        let mut shown = vec![name.to_string()];
        for c in row {
            let Some(bits) = c.value else {
                shown.push(c.status.label().to_string());
                continue;
            };
            shown.push(format!("{bits:.2}"));
            csv_rows.push(vec![
                name.to_string(),
                c.dataset.to_string(),
                format!("{bits:.4}"),
            ]);
        }
        t.row(shown);
    }
    // reference: raw u32 adjacency
    let raw = grid.datasets.iter().map(|_| "32.00");
    t.row(["(raw u32)"].into_iter().chain(raw));

    t.print();
    println!("\n(lower is better; expect MinLA/MinLogA/Gorder smallest, Random largest)");
    match write_csv(
        "compression.csv",
        &["ordering", "dataset", "bits_per_edge"],
        &csv_rows,
    ) {
        Ok(p) => println!("wrote {}", p.display()),
        Err(e) => eprintln!("csv write failed: {e}"),
    }
    swept.finish("compression");
}
