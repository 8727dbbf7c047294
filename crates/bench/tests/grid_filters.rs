//! The grid filters never select nothing in silence: `--orderings` and
//! `--algos` match case-insensitively against every ordering and kernel
//! the harness knows, extensions included, and an unknown name exits 2
//! before any graph is built. fig5, table3 and compression all honour
//! them; table3 runs on its flickr/sdarc pair only. fig1's grid is
//! fixed, so it refuses every filter rather than ignore it.

use std::path::PathBuf;
use std::process::{Command, Output};

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gorder-filters-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs `bin` at `--quick --scale 0.02` plus `args` in a scratch
/// directory; returns its output and, per row of the `csv` it wrote (if
/// any), the columns `cols` picks.
fn run(
    bin: &str,
    name: &str,
    args: &[&str],
    csv: &str,
    cols: [usize; 2],
) -> (Output, Option<Vec<(String, String)>>) {
    let dir = scratch(name);
    let out = Command::new(bin)
        .args(["--quick", "--scale", "0.02"])
        .args(args)
        .current_dir(&dir)
        .output()
        .expect("spawn");
    let rows = std::fs::read_to_string(dir.join("results").join(csv))
        .ok()
        .map(|csv| {
            csv.lines()
                .skip(1)
                .map(|l| {
                    let f: Vec<&str> = l.split(',').collect();
                    (f[cols[0]].to_string(), f[cols[1]].to_string())
                })
                .collect()
        });
    let _ = std::fs::remove_dir_all(&dir);
    (out, rows)
}

/// fig5 on epinion alone; rows are `(ordering, algo)`.
fn fig5(name: &str, filters: &[&str]) -> (Output, Option<Vec<(String, String)>>) {
    let args = [&["--datasets", "epinion"], filters].concat();
    run(env!("CARGO_BIN_EXE_fig5"), name, &args, "fig5.csv", [2, 1])
}

/// table3; rows are `(dataset, ordering)`.
fn table3(name: &str, filters: &[&str]) -> (Output, Option<Vec<(String, String)>>) {
    let bin = env!("CARGO_BIN_EXE_table3");
    run(bin, name, filters, "table3.csv", [0, 1])
}

/// compression; rows are `(ordering, dataset)`.
fn compression(name: &str, filters: &[&str]) -> (Output, Option<Vec<(String, String)>>) {
    let bin = env!("CARGO_BIN_EXE_compression");
    run(bin, name, filters, "compression.csv", [0, 1])
}

/// Exit 2 naming the bad input, no graph built, no CSV written.
fn refused(out: &Output, rows: Option<Vec<(String, String)>>, message: &str) {
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains(message), "{stderr}");
    assert!(!stderr.contains("n = "), "no graph may be built: {stderr}");
    assert_eq!(rows, None, "no CSV is written");
}

fn pairs(p: &[(&str, &str)]) -> Option<Vec<(String, String)>> {
    Some(
        p.iter()
            .map(|(o, a)| (o.to_string(), a.to_string()))
            .collect(),
    )
}

#[test]
fn an_extension_ordering_needs_no_extended_flag() {
    let (out, rows) = fig5("hubsort", &["--orderings", "HubSort", "--algos", "NQ"]);
    assert!(out.status.success(), "{out:?}");
    assert_eq!(rows, pairs(&[("HubSort", "NQ")]));
}

#[test]
fn names_match_case_insensitively_in_registry_order() {
    let (out, rows) = fig5(
        "case",
        &["--orderings", "gorder,original", "--algos", "bfs,nq"],
    );
    assert!(out.status.success(), "{out:?}");
    assert_eq!(
        rows,
        pairs(&[
            ("Original", "NQ"),
            ("Original", "BFS"),
            ("Gorder", "NQ"),
            ("Gorder", "BFS"),
        ])
    );
}

#[test]
fn an_unknown_algorithm_exits_2_before_any_graph_is_built() {
    let (out, rows) = fig5("nope", &["--algos", "Nope"]);
    refused(&out, rows, "unknown algorithm \"Nope\"");
}

#[test]
fn table3_runs_the_orderings_and_dataset_it_is_given() {
    let filters = ["--datasets", "sdarc", "--orderings", "gorder,original"];
    let (out, rows) = table3("table3", &filters);
    assert!(out.status.success(), "{out:?}");
    assert_eq!(rows, pairs(&[("sdarc", "Original"), ("sdarc", "Gorder")]));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Table 3b (sdarc)"), "{stdout}");
}

#[test]
fn table3_refuses_a_dataset_outside_its_pair_and_unknown_names() {
    let (out, rows) = table3("t3-epinion", &["--datasets", "epinion"]);
    refused(&out, rows, "not \"epinion\"");
    let (out, rows) = table3("t3-nope", &["--datasets", "nope"]);
    refused(&out, rows, "unknown dataset \"nope\"");
    let (out, rows) = table3("t3-gordr", &["--orderings", "Gordr"]);
    refused(&out, rows, "unknown ordering \"Gordr\"");
}

#[test]
fn compression_runs_the_orderings_and_datasets_it_is_given() {
    let filters = ["--datasets", "wiki,epinion", "--orderings", "rcm,hubsort"];
    let (out, rows) = compression("compression", &filters);
    assert!(out.status.success(), "{out:?}");
    assert_eq!(
        rows,
        pairs(&[
            ("RCM", "wiki"),
            ("RCM", "epinion"),
            ("HubSort", "wiki"),
            ("HubSort", "epinion"),
        ])
    );
}

#[test]
fn compression_refuses_unknown_names() {
    let (out, rows) = compression("c-nope", &["--datasets", "epinion,nope"]);
    refused(&out, rows, "unknown dataset \"nope\"");
    let (out, rows) = compression("c-gordr", &["--orderings", "Gordr"]);
    refused(&out, rows, "unknown ordering \"Gordr\"");
}

#[test]
fn fig1_refuses_every_filter_it_would_ignore() {
    let bin = env!("CARGO_BIN_EXE_fig1");
    for (name, filter) in [
        ("f1-datasets", ["--datasets", "epinion"]),
        ("f1-orderings", ["--orderings", "RCM"]),
        ("f1-algos", ["--algos", "BFS"]),
    ] {
        let (out, rows) = run(bin, name, &filter, "fig1.csv", [0, 1]);
        refused(&out, rows, "fig1 runs a fixed grid (sdarc");
    }
}
