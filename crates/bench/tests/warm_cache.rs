//! Warm permutation-cache behaviour of the guarded grid: a second sweep
//! over the same configuration recomputes **zero** orderings — every
//! resolution is a cache hit — and its usable cells match the cold run's
//! exactly (simulated mode is deterministic, so equality is bitwise).
//!
//! The same holds for the `table2` and `ablation` binaries, whose rows
//! carry wall times: a warm run writes only cache-hit `order` records,
//! and a `--resume` over a complete trace resolves no ordering at all and
//! rewrites the CSV byte for byte.

use gorder_bench::{sweep, CellResult, GridConfig, Sweep, Swept};
use gorder_graph::datasets::epinion_like;
use gorder_obs::OrderEvent;
use gorder_orders::OrderCache;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Duration;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gorder-warm-cache-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn cfg() -> GridConfig {
    GridConfig {
        scale: 0.02,
        reps: 1,
        seed: 11,
        quick: true,
        datasets: vec![epinion_like()],
        orderings: Some(vec!["Original".into(), "ChDFS".into(), "Gorder".into()]),
        algos: Some(vec!["NQ".into(), "BFS".into()]),
        extended: false,
        threads: 1,
    }
}

fn run(cache: &OrderCache) -> (Swept<CellResult>, Vec<OrderEvent>) {
    let mut events = Vec::new();
    let grid = Sweep {
        timeout: Some(Duration::from_secs(120)),
        cache: Some(cache.clone()),
        ..cfg().sweep().unwrap()
    };
    let report = sweep(
        &grid,
        &mut *cfg().sim_measure(), // simulated mode: deterministic seconds
        &mut |e: &OrderEvent| events.push(e.clone()),
        &mut |_| {},
    );
    (report, events)
}

#[test]
fn second_sweep_hits_cache_for_every_ordering_and_matches() {
    let dir = tmpdir("grid");
    let cache = OrderCache::new(&dir).unwrap();

    let (cold, cold_events) = run(&cache);
    assert_eq!(cold_events.len(), 3, "one order event per ordering");
    assert!(
        cold_events.iter().all(|e| !e.cache_hit),
        "cold run computes everything"
    );
    assert!(
        cold_events.iter().all(|e| e.status == "completed"),
        "tiny grid completes"
    );

    let (warm, warm_events) = run(&cache);
    assert_eq!(warm_events.len(), 3);
    assert!(
        warm_events.iter().all(|e| e.cache_hit),
        "warm run recomputes zero orderings: {warm_events:?}"
    );

    // Same identities resolved in the same order, and identical results.
    for (c, w) in cold_events.iter().zip(&warm_events) {
        assert_eq!(c.identity, w.identity);
        assert_eq!(c.graph_digest, w.graph_digest);
        assert_eq!(w.nodes_placed, c.nodes_placed);
    }
    let (cu, wu) = (cold.usable(), warm.usable());
    assert_eq!(cu.len(), wu.len());
    for (c, w) in cu.iter().zip(&wu) {
        assert_eq!(c.dataset, w.dataset);
        assert_eq!(c.ordering, w.ordering);
        assert_eq!(c.algo, w.algo);
        assert_eq!(c.checksum, w.checksum, "{}/{}", c.ordering, c.algo);
        assert_eq!(
            c.seconds, w.seconds,
            "simulated seconds are deterministic for {}/{}",
            c.ordering, c.algo
        );
    }
    let _ = fs::remove_dir_all(&dir);
}

/// Runs `bin` at `--quick --scale 0.02` plus `grid` and `extra` in `dir`;
/// it must exit 0.
fn run_bin(bin: &str, dir: &Path, grid: &[&str], extra: &[&str]) {
    let out = Command::new(bin)
        .args(["--quick", "--scale", "0.02"])
        .args(grid)
        .args(extra)
        .current_dir(dir)
        .output()
        .expect("spawn");
    assert!(out.status.success(), "{out:?}");
}

/// The `order` lines of a trace.
fn order_lines(trace: &Path) -> Vec<String> {
    fs::read_to_string(trace)
        .unwrap()
        .lines()
        .filter(|l| l.contains("\"kind\":\"order\""))
        .map(str::to_string)
        .collect()
}

/// Cold run, warm run over the same `--order-cache`, then a `--resume`
/// over the warm run's complete trace.
fn warm_then_resume(bin: &str, tag: &str, csv: &str, grid: &[&str], orderings: usize) {
    let dir = tmpdir(tag);
    fs::create_dir_all(&dir).unwrap();
    let cached = ["--order-cache", "cache"];
    run_bin(
        bin,
        &dir,
        grid,
        &[&cached[..], &["--trace-out", "cold.jsonl"]].concat(),
    );
    let cold = order_lines(&dir.join("cold.jsonl"));
    assert_eq!(cold.len(), orderings, "{cold:?}");
    assert!(
        cold.iter().all(|l| l.contains("\"cache_hit\":false")),
        "{cold:?}"
    );

    run_bin(
        bin,
        &dir,
        grid,
        &[&cached[..], &["--trace-out", "warm.jsonl"]].concat(),
    );
    let warm = order_lines(&dir.join("warm.jsonl"));
    assert_eq!(warm.len(), orderings, "one order record per ordering");
    assert!(
        warm.iter().all(|l| l.contains("\"cache_hit\":true")),
        "a warm run computes no ordering: {warm:?}"
    );
    let written = fs::read(dir.join("results").join(csv)).unwrap();

    run_bin(
        bin,
        &dir,
        grid,
        &["--resume", "warm.jsonl", "--trace-out", "resumed.jsonl"],
    );
    let resumed = order_lines(&dir.join("resumed.jsonl"));
    assert!(
        resumed.is_empty(),
        "a resumed run resolves nothing: {resumed:?}"
    );
    let rewritten = fs::read(dir.join("results").join(csv)).unwrap();
    assert_eq!(written, rewritten, "the resumed CSV is byte-identical");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn table2_warm_run_hits_the_cache_and_resume_rewrites_the_csv() {
    let grid = [
        "--datasets",
        "epinion",
        "--orderings",
        "Original,ChDFS,Gorder",
    ];
    warm_then_resume(
        env!("CARGO_BIN_EXE_table2"),
        "table2",
        "table2.csv",
        &grid,
        3,
    );
}

#[test]
fn ablation_warm_run_hits_the_cache_and_resume_rewrites_the_csv() {
    let grid = ["--datasets", "flickr", "--orderings", "Original,RCM,Gorder"];
    warm_then_resume(
        env!("CARGO_BIN_EXE_ablation"),
        "ablation",
        "ablation.csv",
        &grid,
        3,
    );
}
