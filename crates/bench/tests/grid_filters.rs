//! `fig5`'s grid filters never select nothing in silence: `--orderings`
//! and `--algos` match case-insensitively against every ordering and
//! kernel the harness knows, extensions included, and an unknown name
//! exits 2 before any graph is built.

use std::path::PathBuf;
use std::process::{Command, Output};

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gorder-filters-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs fig5 on a tiny grid in a scratch directory; returns its output
/// and the `(ordering, algo)` pairs of the CSV it wrote, if any.
fn fig5(name: &str, filters: &[&str]) -> (Output, Option<Vec<(String, String)>>) {
    let dir = scratch(name);
    let out = Command::new(env!("CARGO_BIN_EXE_fig5"))
        .args(["--quick", "--scale", "0.02", "--datasets", "epinion"])
        .args(filters)
        .current_dir(&dir)
        .output()
        .expect("spawn fig5");
    let rows = std::fs::read_to_string(dir.join("results/fig5.csv"))
        .ok()
        .map(|csv| {
            csv.lines()
                .skip(1)
                .map(|l| {
                    let f: Vec<&str> = l.split(',').collect();
                    (f[2].to_string(), f[1].to_string())
                })
                .collect()
        });
    let _ = std::fs::remove_dir_all(&dir);
    (out, rows)
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
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown algorithm \"Nope\""), "{stderr}");
    assert!(!stderr.contains("n = "), "no graph may be built: {stderr}");
    assert_eq!(rows, None, "no CSV is written");
}
