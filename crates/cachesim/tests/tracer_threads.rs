//! A `Tracer` runs the levels below L1 on a worker thread. Each live
//! tracer has at most one, and dropping it stops it, whether or not
//! touches were still pending: the daemon builds a tracer per `simulate`
//! request, so a leak would grow with every request.
//!
//! This is the only test in its binary, so no other test's threads move
//! the count it reads.

use gorder_cachesim::{CacheHierarchy, HierarchyConfig, Tracer};

/// Touches per pending buffer (the crate's private batch size).
const BATCH: usize = 4096;

/// This process's thread count, from `/proc/self/status`.
fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    status
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .and_then(|n| n.trim().parse().ok())
        .expect("a Threads: line")
}

#[test]
#[cfg_attr(not(target_os = "linux"), ignore = "reads /proc/self/status")]
fn dropped_tracers_leave_no_threads() {
    let start = threads();
    let mut live = Vec::new();
    for i in 0..50 {
        let mut t = Tracer::new(CacheHierarchy::new(&HierarchyConfig::scaled_down()));
        let a = t.alloc(1 << 20, 4);
        // a few full batches, so the worker runs, and for odd i a partial
        // batch still pending at drop
        let touches = 3 * BATCH + if i % 2 == 1 { 17 } else { 0 };
        for j in 0..touches {
            t.touch(&a, (j * 97) % (1 << 20));
        }
        if i % 4 == 0 {
            assert_eq!(t.counters().refs, touches as u64);
        }
        live.push(t);
        if live.len() == 5 {
            assert!(
                threads() <= start + live.len(),
                "{} threads for {} live tracers over a start of {start}",
                threads(),
                live.len()
            );
            live.clear();
        }
    }
    drop(live);
    assert_eq!(threads(), start, "threads left after every tracer dropped");
}
