//! `ablation`'s `--datasets` never selects nothing in silence: it runs on
//! flickr and pldarc only, and any other name, known or not, exits 2
//! before any graph is built.

use std::path::PathBuf;
use std::process::{Command, Output};

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gorder-ablation-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs ablation on a tiny grid in a scratch directory; returns its
/// output and the `(dataset, ordering)` pairs of the CSV it wrote, if any.
fn ablation(name: &str, datasets: &str) -> (Output, Option<Vec<(String, String)>>) {
    let dir = scratch(name);
    let out = Command::new(env!("CARGO_BIN_EXE_ablation"))
        .args(["--quick", "--scale", "0.02", "--orderings", "Original"])
        .args(["--datasets", datasets])
        .current_dir(&dir)
        .output()
        .expect("spawn ablation");
    let rows = std::fs::read_to_string(dir.join("results/ablation.csv"))
        .ok()
        .map(|csv| {
            csv.lines()
                .skip(1)
                .map(|l| {
                    let f: Vec<&str> = l.split(',').collect();
                    (f[0].to_string(), f[1].to_string())
                })
                .collect()
        });
    let _ = std::fs::remove_dir_all(&dir);
    (out, rows)
}

fn refused(out: &Output, rows: Option<Vec<(String, String)>>, message: &str) {
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains(message), "{stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!stdout.contains("n = "), "no graph may be built: {stdout}");
    assert_eq!(rows, None, "no CSV is written");
}

#[test]
fn a_known_dataset_outside_the_pair_exits_2() {
    let (out, rows) = ablation("epinion", "epinion");
    refused(&out, rows, "not \"epinion\"");
}

#[test]
fn an_unknown_dataset_exits_2() {
    let (out, rows) = ablation("nope", "flickr,nope");
    refused(&out, rows, "unknown dataset \"nope\"");
}

#[test]
fn a_dataset_of_the_pair_runs_alone() {
    let (out, rows) = ablation("pldarc", "pldarc");
    assert!(out.status.success(), "{out:?}");
    assert_eq!(rows, Some(vec![("pldarc".into(), "Original".into())]));
}
