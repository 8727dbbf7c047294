//! Warm permutation-cache behaviour of the guarded grid: a second sweep
//! over the same configuration recomputes **zero** orderings — every
//! resolution is a cache hit — and its usable cells match the cold run's
//! exactly (simulated mode is deterministic, so equality is bitwise).

use gorder_bench::{run_grid, GridConfig, Sweep, SweepReport};
use gorder_graph::datasets::epinion_like;
use gorder_obs::OrderEvent;
use gorder_orders::OrderCache;
use std::fs;
use std::path::PathBuf;
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

fn sweep(cache: &OrderCache) -> (SweepReport, Vec<OrderEvent>) {
    let mut events = Vec::new();
    let grid = Sweep {
        timeout: Some(Duration::from_secs(120)),
        cache: Some(cache),
        ..cfg().sweep().unwrap()
    };
    let report = run_grid(
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

    let (cold, cold_events) = sweep(&cache);
    assert_eq!(cold_events.len(), 3, "one order event per ordering");
    assert!(
        cold_events.iter().all(|e| !e.cache_hit),
        "cold run computes everything"
    );
    assert!(
        cold_events.iter().all(|e| e.status == "completed"),
        "tiny grid completes"
    );

    let (warm, warm_events) = sweep(&cache);
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
